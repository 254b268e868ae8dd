#include "sim/functional.hpp"

#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "sim/loom_sim.hpp"

namespace loom::sim {

namespace {

/// Output precision of weighted layer `i`: the next conv consumer's profile
/// Pa (an FC consumer, or no consumer, stores at base precision).
int consumer_out_bits(const nn::Network& net, std::size_t i) {
  for (std::size_t j = i + 1; j < net.size(); ++j) {
    if (net.layer(j).kind == nn::LayerKind::kConv) {
      return net.layer(j).act_precision;
    }
    if (net.layer(j).kind == nn::LayerKind::kFullyConnected) break;
  }
  return static_cast<int>(kBasePrecision);
}

/// Marshal a batch into the pointer views the backends consume.
void batch_ptrs(std::span<const nn::Tensor> inputs,
                std::vector<nn::WideTensor>& wides,
                std::vector<const nn::Tensor*>& in_ptrs,
                std::vector<nn::WideTensor*>& wide_ptrs) {
  in_ptrs.resize(inputs.size());
  wide_ptrs.resize(inputs.size());
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    in_ptrs[r] = &inputs[r];
    wide_ptrs[r] = &wides[r];
  }
}

/// Per-request requantization demux: each request picks its shift from its
/// own accumulators, exactly as a solo run would.
void requantize_batch(FunctionalBatchLayerRun& run, int out_bits, bool relu) {
  run.outputs.reserve(run.wides.size());
  run.requant_shifts.reserve(run.wides.size());
  for (const nn::WideTensor& wide : run.wides) {
    const int shift = nn::choose_requant_shift(wide, out_bits);
    run.requant_shifts.push_back(shift);
    run.outputs.push_back(nn::requantize(wide, shift, out_bits, relu));
  }
}

/// A batch of one as a solo layer run.
FunctionalLayerRun solo_run(FunctionalBatchLayerRun&& b) {
  return FunctionalLayerRun{.name = std::move(b.name),
                            .output = std::move(b.outputs.front()),
                            .wide = std::move(b.wides.front()),
                            .cycles = b.cycles,
                            .requant_shift = b.requant_shifts.front(),
                            .out_bits = b.out_bits,
                            .mean_streamed_precision =
                                b.mean_streamed_precision,
                            .backend = std::move(b.backend)};
}

}  // namespace

bool functional_scalar_env() {
  const char* v = std::getenv("LOOM_FUNCTIONAL_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

FunctionalLoomEngine::FunctionalLoomEngine(FunctionalOptions opts)
    : opts_(opts),
      dispatcher_(opts.lanes),
      layers_(opts.backend, opts.force_scalar,
              BackendContext{.rows = opts.rows,
                             .cols = opts.cols,
                             .lanes = opts.lanes,
                             .jobs = opts.jobs}) {
  LOOM_EXPECTS(opts.rows >= 1 && opts.cols >= 1);
  LOOM_EXPECTS(opts.lanes >= 1 && opts.lanes <= 32);
}

FunctionalLayerRun FunctionalLoomEngine::run_conv(const nn::Layer& layer,
                                                  const nn::Tensor& input,
                                                  const nn::Tensor& weights,
                                                  int out_bits) {
  return solo_run(run_conv_batch(layer, std::span<const nn::Tensor>(&input, 1),
                                 weights, out_bits));
}

FunctionalLayerRun FunctionalLoomEngine::run_fc(const nn::Layer& layer,
                                                const nn::Tensor& input,
                                                const nn::Tensor& weights,
                                                int out_bits) {
  return solo_run(run_fc_batch(layer, std::span<const nn::Tensor>(&input, 1),
                               weights, out_bits));
}

FunctionalBatchLayerRun FunctionalLoomEngine::run_conv_batch(
    const nn::Layer& layer, std::span<const nn::Tensor> inputs,
    const nn::Tensor& weights, int out_bits) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  LOOM_EXPECTS(!inputs.empty());
  FunctionalBatchLayerRun run;
  run.name = layer.name;
  run.out_bits = out_bits;
  const std::size_t batch = inputs.size();
  run.wides.reserve(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    run.wides.emplace_back(nn::Shape{layer.out.c, layer.out.h, layer.out.w});
  }

  std::vector<const nn::Tensor*> in_ptrs;
  std::vector<nn::WideTensor*> wide_ptrs;
  batch_ptrs(inputs, run.wides, in_ptrs, wide_ptrs);
  const SliceSpec spec{
      .act_precision = layer.act_precision,
      .weight_precision = layer.weight_precision,
      .act_signed = false,
      .dynamic = opts_.dynamic_act_precision};
  const ConvStats st =
      layers_.run_conv(layer, in_ptrs, weights, spec, wide_ptrs, run.backend);
  run.cycles = st.cycles;
  run.mean_streamed_precision =
      st.chunks ? st.streamed_pa / static_cast<double>(st.chunks) : 0.0;
  dispatcher_.note_streamed(st.act_bits_streamed, st.weight_bits_streamed,
                            st.detect_invocations, st.detect_values);
  requantize_batch(run, out_bits, opts_.relu);
  return run;
}

FunctionalBatchLayerRun FunctionalLoomEngine::run_fc_batch(
    const nn::Layer& layer, std::span<const nn::Tensor> inputs,
    const nn::Tensor& weights, int out_bits) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kFullyConnected);
  LOOM_EXPECTS(!inputs.empty());
  FunctionalBatchLayerRun run;
  run.name = layer.name;
  run.out_bits = out_bits;
  const std::size_t batch = inputs.size();
  run.wides.reserve(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    run.wides.emplace_back(nn::Shape{layer.out.c, 1, 1});
  }

  std::vector<const nn::Tensor*> in_ptrs;
  std::vector<nn::WideTensor*> wide_ptrs;
  batch_ptrs(inputs, run.wides, in_ptrs, wide_ptrs);
  // FCLs stream the full 16 activation bits; the kernels' accumulators are
  // exact, so every backend lands the same wide tensors.
  layers_.run_fc(layer, in_ptrs, weights, layer.weight_precision, wide_ptrs,
                 run.backend);
  requantize_batch(run, out_bits, opts_.relu);

  // Wall-clock cycles: the same cascade-aware model as the analytic
  // LoomSimulator::simulate_fc — best `ways` slicing plus the cols-1
  // column-stagger initiation — excluding the analytic kPipelineFill. FC
  // grid cycles have no batch dimension in the cascade model: every image
  // streams its own full-precision activations, so the batch costs N solo
  // passes. The request packing above is a software-throughput win only.
  const std::int64_t ci = layer.in.elements();
  const FcCascadePlan plan = plan_fc_cascade(
      opts_.rows, opts_.cols, opts_.lanes, layer.out.c, ci,
      static_cast<double>(layer.weight_precision),
      static_cast<double>(kBasePrecision), opts_.cascading);
  run.cycles = static_cast<std::uint64_t>(std::llround(
                   plan.cycles + static_cast<double>(opts_.cols - 1))) *
               static_cast<std::uint64_t>(batch);
  run.mean_streamed_precision = kBasePrecision;
  return run;
}

FunctionalBatchNetworkRun FunctionalLoomEngine::run_network_batch(
    const nn::Network& net, std::span<const nn::Tensor> inputs,
    std::span<const nn::Tensor> weights) {
  LOOM_EXPECTS(!inputs.empty());
  if (opts_.pre_run_hook) opts_.pre_run_hook();
  FunctionalBatchNetworkRun run;
  std::vector<nn::Tensor> current(inputs.begin(), inputs.end());
  std::size_t weight_index = 0;

  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& layer = net.layer(i);
    switch (layer.kind) {
      case nn::LayerKind::kConv:
      case nn::LayerKind::kFullyConnected: {
        LOOM_EXPECTS(weight_index < weights.size());
        FunctionalBatchLayerRun lr =
            layer.kind == nn::LayerKind::kConv
                ? run_conv_batch(layer, current, weights[weight_index++],
                                 consumer_out_bits(net, i))
                : run_fc_batch(layer, current, weights[weight_index++],
                               consumer_out_bits(net, i));
        current = lr.outputs;
        run.total_cycles += lr.cycles;
        run.layers.push_back(std::move(lr));
        break;
      }
      case nn::LayerKind::kPool: {
        for (nn::Tensor& t : current) t = nn::pool_forward(t, layer);
        break;
      }
    }
  }
  run.outputs = std::move(current);
  LOOM_ENSURES(weight_index == weights.size());
  return run;
}

FunctionalNetworkRun FunctionalLoomEngine::run_network(
    const nn::Network& net, const nn::Tensor& input,
    std::span<const nn::Tensor> weights) {
  FunctionalBatchNetworkRun batch = run_network_batch(
      net, std::span<const nn::Tensor>(&input, 1), weights);
  FunctionalNetworkRun run;
  run.layers.reserve(batch.layers.size());
  for (FunctionalBatchLayerRun& lr : batch.layers) {
    run.layers.push_back(solo_run(std::move(lr)));
  }
  run.output = std::move(batch.outputs.front());
  run.total_cycles = batch.total_cycles;
  return run;
}

}  // namespace loom::sim
