// Functional Loom engine: executes an entire (small) network through the
// bit-serial datapath — dispatcher serialization, WR loads, per-cycle SIP
// evaluation, cascade/OR accumulation, requantization and pooling between
// layers — producing exact activations plus the wall-clock cycles the grid
// spent.
//
// This is the ground-truth twin of the analytic cycle model in
// loom_sim.cpp: tests assert that (a) the outputs equal the bit-parallel
// golden reference through the whole network and (b) the cycle counts of
// the two models agree (the functional counts exclude the analytic model's
// per-layer kPipelineFill constant).
//
// Layer math runs on an interchangeable kernel from the backend registry
// (sim/backend.hpp), reached through the shared LayerDispatcher: the scalar
// arch::Sip oracle, the bit-parallel multiply-add kernel, or the LUT kernel
// — all byte-identical in outputs, cycle counts, streamed-precision means
// and dispatcher/detector statistics (golden-pinned in
// tests/test_functional_golden.cpp, swept by
// tests/test_backend_differential.cpp). Selection: FunctionalOptions::
// backend, then LOOM_FUNCTIONAL_BACKEND, then "auto" — which hands each
// layer to the BackendAutotuner to memoize the empirically fastest kernel.
// FunctionalOptions::force_scalar / LOOM_FUNCTIONAL_SCALAR still force the
// scalar oracle, and configurations no fast kernel can pack (cols > 64)
// fall back to it automatically.
//
// Restriction: models the LM1b variant (one activation bit per cycle).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "arch/dispatcher.hpp"
#include "nn/network.hpp"
#include "nn/reference.hpp"
#include "nn/tensor.hpp"
#include "sim/backend.hpp"

namespace loom::sim {

struct FunctionalOptions {
  int rows = 16;   ///< SIP rows (concurrent filters)
  int cols = 16;   ///< SIP columns (concurrent windows)
  int lanes = 16;  ///< products per SIP per cycle
  bool dynamic_act_precision = true;
  bool relu = true;  ///< apply ReLU at requantization (hidden layers)
  bool cascading = true;  ///< SIP daisy-chaining for FC layers (cycle model)
  /// Worker threads for the fast backends' fan-out over the shared pool;
  /// 0 = all hardware threads, 1 = serial. Results are byte-identical for
  /// every value.
  int jobs = 0;
  /// Force the scalar arch::Sip oracle (also: LOOM_FUNCTIONAL_SCALAR=1).
  bool force_scalar = false;
  /// Kernel selection: "" defers to LOOM_FUNCTIONAL_BACKEND, then "auto"
  /// (per-layer autotuned between "madd" and "lut"); or a registered name
  /// ("scalar", "madd", "lut"). Unknown names throw ConfigError at
  /// construction.
  std::string backend = {};
  /// Invoked at the top of every run_network / run_network_batch call; may
  /// throw, in which case the run fails before touching any state. This is
  /// how the serving fault injector makes an engine run fail: the server
  /// installs a hook that throws TransientEngineError at a configured
  /// probability on its primary engine, while the scalar-oracle fallback
  /// engine runs hook-free. Null = disabled.
  std::function<void()> pre_run_hook = nullptr;
};

struct FunctionalLayerRun {
  std::string name;
  nn::Tensor output;             ///< requantized output activations
  nn::WideTensor wide;           ///< exact pre-requantization accumulators
  std::uint64_t cycles = 0;      ///< grid wall-clock cycles
  int requant_shift = 0;
  int out_bits = kBasePrecision;
  double mean_streamed_precision = 0.0;  ///< average Pa actually streamed
  std::string backend;           ///< kernel that ran this layer
};

struct FunctionalNetworkRun {
  std::vector<FunctionalLayerRun> layers;
  nn::Tensor output;
  std::uint64_t total_cycles = 0;
};

/// One layer of a batched (multi-request) run. Outputs, accumulators and
/// requantization shifts are per request and byte-identical to running each
/// request alone; `cycles` is the grid wall clock for the *coalesced* batch
/// (conv windows of all requests share the SIP columns, so this is less
/// than the sum of solo runs whenever a request leaves lanes empty).
struct FunctionalBatchLayerRun {
  std::string name;
  std::vector<nn::Tensor> outputs;      ///< per-request requantized outputs
  std::vector<nn::WideTensor> wides;    ///< per-request exact accumulators
  std::vector<int> requant_shifts;      ///< per-request (same as solo runs)
  std::uint64_t cycles = 0;             ///< grid cycles for the whole batch
  int out_bits = kBasePrecision;
  double mean_streamed_precision = 0.0;  ///< mean Pa over the batch's chunks
  std::string backend;                   ///< kernel that ran this layer
};

struct FunctionalBatchNetworkRun {
  std::vector<FunctionalBatchLayerRun> layers;
  std::vector<nn::Tensor> outputs;  ///< per-request network outputs
  std::uint64_t total_cycles = 0;
};

class FunctionalLoomEngine {
 public:
  explicit FunctionalLoomEngine(FunctionalOptions opts = {});

  // The solo calls below are batches of one through the batched calls
  // further down: one layer path and one network walk.

  /// Execute one convolutional layer. `weights` is flat [Co][Ci/g][Kh][Kw].
  [[nodiscard]] FunctionalLayerRun run_conv(const nn::Layer& layer,
                                            const nn::Tensor& input,
                                            const nn::Tensor& weights,
                                            int out_bits);

  /// Execute one fully-connected layer. `weights` is flat [Co][Ci].
  /// Cycle count follows the same cascade-aware model as
  /// LoomSimulator::simulate_fc (plan_fc_cascade + column stagger), minus
  /// the analytic model's kPipelineFill constant.
  [[nodiscard]] FunctionalLayerRun run_fc(const nn::Layer& layer,
                                          const nn::Tensor& input,
                                          const nn::Tensor& weights,
                                          int out_bits);

  /// Execute a whole profiled network: conv/fc layers on the grid, pooling
  /// through the max/average units, requantizing every output to the
  /// consumer layer's profile precision. `weights[i]` pairs with the i-th
  /// *weighted* layer.
  [[nodiscard]] FunctionalNetworkRun run_network(
      const nn::Network& net, const nn::Tensor& input,
      std::span<const nn::Tensor> weights);

  // ---- Batched (multi-request) execution ----------------------------------
  // N same-shape inputs run as one coalesced batch: conv im2col window
  // ranges of different requests concatenate into one column range of the
  // fast backends, the madd FC GEMM streams each weight row once for the
  // whole batch, and every request's outputs demux back out. Requantization
  // (shift choice included) is per request, so outputs are byte-identical
  // to N solo runs — pinned by tests/test_batch_properties.cpp and the
  // serving stress tests, not assumed. On the scalar oracle a batch is
  // executed as N solo runs (summed cycles, chunk-weighted mean streamed
  // precision), which is the batching semantics oracle. FC grid cycles stay
  // per-image (batch = N x solo): the cascade model has no batch dimension;
  // the shared weight stream is a software throughput win.

  [[nodiscard]] FunctionalBatchLayerRun run_conv_batch(
      const nn::Layer& layer, std::span<const nn::Tensor> inputs,
      const nn::Tensor& weights, int out_bits);

  [[nodiscard]] FunctionalBatchLayerRun run_fc_batch(
      const nn::Layer& layer, std::span<const nn::Tensor> inputs,
      const nn::Tensor& weights, int out_bits);

  [[nodiscard]] FunctionalBatchNetworkRun run_network_batch(
      const nn::Network& net, std::span<const nn::Tensor> inputs,
      std::span<const nn::Tensor> weights);

  [[nodiscard]] const arch::Dispatcher& dispatcher() const noexcept {
    return dispatcher_;
  }
  [[nodiscard]] const FunctionalOptions& options() const noexcept { return opts_; }
  /// The resolved kernel selection: "scalar" (force_scalar /
  /// LOOM_FUNCTIONAL_SCALAR / a grid outside the fast envelope), "auto"
  /// (per-layer autotuned), or a concrete registered backend name.
  [[nodiscard]] const std::string& backend_name() const noexcept {
    return layers_.resolved();
  }

 private:
  FunctionalOptions opts_;
  arch::Dispatcher dispatcher_;
  LayerDispatcher layers_;
};

/// True when the process-wide LOOM_FUNCTIONAL_SCALAR escape hatch is set
/// (any value other than empty or "0").
[[nodiscard]] bool functional_scalar_env();

}  // namespace loom::sim
