// Whole-network differential: a paper network (NiN, AlexNet) with its
// profile precisions and synthetic weights runs through every registered
// fast backend. Each backend's per-layer outputs and requantization shifts
// must be byte-identical to the bit-parallel nn:: reference pipeline
// (conv_forward / fc_forward / pool_forward, choose_requant_shift,
// requantize), and every backend must report the same per-layer cycles.
// The scalar oracle is left out: it is ~30 MMAC/s, minutes per network.
//
// NiN runs under the `sim` label (so the sanitizer legs see it), AlexNet
// under `slow`.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/reference.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "serve/model_registry.hpp"
#include "sim/backend.hpp"
#include "sim/functional.hpp"

namespace loom::sim {
namespace {

struct ReferenceLayer {
  nn::Tensor output;
  int shift = 0;
};

struct ReferenceRun {
  std::vector<ReferenceLayer> layers;  ///< per weighted layer
  nn::Tensor output;                   ///< after any trailing pool
};

/// The nn:: reference of every weighted layer of `run`, each computed from
/// the input the engine fed that layer: the network input, or the previous
/// weighted layer's output through any pools in between. Given those inputs
/// the layers are independent, so they compute in parallel on the shared
/// pool. The first layer's input is the network input, so a run that
/// matches every layer matches the sequential reference pipeline by
/// induction. Out bits follow FunctionalLoomEngine::run_network's rule.
ReferenceRun reference_run(const nn::Network& net, const nn::Tensor& input,
                           std::span<const nn::Tensor> weights,
                           const FunctionalNetworkRun& run) {
  struct Task {
    const nn::Layer* layer;
    nn::Tensor input;
    int out_bits;
  };
  std::vector<Task> tasks;
  std::vector<const nn::Layer*> trailing_pools;
  nn::Tensor x = input;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& l = net.layer(i);
    if (l.kind == nn::LayerKind::kPool) {
      x = nn::pool_forward(x, l);
      trailing_pools.push_back(&l);
      continue;
    }
    trailing_pools.clear();
    int out_bits = kBasePrecision;
    for (std::size_t j = i + 1; j < net.size(); ++j) {
      if (net.layer(j).kind == nn::LayerKind::kConv) {
        out_bits = net.layer(j).act_precision;
        break;
      }
      if (net.layer(j).kind == nn::LayerKind::kFullyConnected) break;
    }
    tasks.push_back({&l, std::move(x), out_bits});
    if (tasks.size() > run.layers.size()) break;  // the size check reports it
    x = run.layers[tasks.size() - 1].output;
  }

  ReferenceRun ref;
  ref.layers.resize(tasks.size());
  shared_pool().parallel_for(tasks.size(), [&](std::size_t k) {
    const Task& t = tasks[k];
    const nn::WideTensor wide =
        t.layer->kind == nn::LayerKind::kConv
            ? nn::conv_forward(t.input, weights[k], *t.layer)
            : nn::fc_forward(t.input, weights[k], *t.layer);
    ref.layers[k].shift = nn::choose_requant_shift(wide, t.out_bits);
    ref.layers[k].output =
        nn::requantize(wide, ref.layers[k].shift, t.out_bits, /*relu=*/true);
  });
  ref.output = ref.layers.back().output;
  for (const nn::Layer* pool : trailing_pools) {
    ref.output = nn::pool_forward(ref.output, *pool);
  }
  return ref;
}

void check_network(const std::string& name) {
  nn::Network net = nn::zoo::make(name);
  const quant::PrecisionProfile& profile =
      quant::profile_for(name, quant::AccuracyTarget::k100);
  quant::apply_profile(net, profile);
  serve::ModelRegistry registry;
  const auto model = registry.add_synthetic(name, std::move(net), profile, 1);
  const nn::Tensor input = model->make_input(1, 0);
  std::vector<std::string> backends;
  std::vector<FunctionalNetworkRun> runs;
  for (const std::string& backend : BackendRegistry::instance().names()) {
    if (backend == "scalar") continue;
    FunctionalLoomEngine engine(FunctionalOptions{.jobs = 0, .backend = backend});
    ASSERT_EQ(engine.backend_name(), backend);
    backends.push_back(backend);
    runs.push_back(engine.run_network(model->net, input, model->weights));
  }
  ASSERT_GE(backends.size(), 2u);  // madd, lut at least
  const ReferenceRun ref =
      reference_run(model->net, input, model->weights, runs.front());
  const std::vector<ReferenceLayer>& want = ref.layers;

  const std::string& first = backends.front();
  for (std::size_t b = 0; b < backends.size(); ++b) {
    const std::string& backend = backends[b];
    const FunctionalNetworkRun& run = runs[b];
    ASSERT_EQ(run.layers.size(), want.size()) << backend;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const FunctionalLayerRun& lr = run.layers[i];
      EXPECT_EQ(lr.backend, backend);
      EXPECT_EQ(lr.requant_shift, want[i].shift) << backend << " " << lr.name;
      EXPECT_TRUE(lr.output == want[i].output) << backend << " " << lr.name;
      EXPECT_EQ(lr.cycles, runs.front().layers[i].cycles)
          << lr.name << ": " << backend << " vs " << first;
    }
    EXPECT_TRUE(run.output == ref.output) << backend;
  }
}

TEST(ZooDifferential, NinAllBackendsMatchReference) { check_network("nin"); }

TEST(ZooDifferential, AlexNetAllBackendsMatchReference) {
  check_network("alexnet");
}

}  // namespace
}  // namespace loom::sim
