// The modelled Loom streaming statistics of one (possibly batched) conv
// layer run, computed once and outside any kernel.
//
// A functional kernel owes two things: exact accumulators, and the stats the
// dispatcher-driven SIP grid would report for the same run (cycles,
// streamed Pa, chunks, streamed act/weight bits, detector counters). The
// stats depend only on the layer geometry, the grid shape, the streaming
// spec and — under dynamic precision — the activation ORs, never on how the
// accumulators are computed. This pass derives them so that any kernel can
// report them:
//
//   - column groups are `cols` consecutive windows on the batch-concatenated
//     window axis (a group may span two requests);
//   - each (conv group, input chunk, column group) streams at
//     pa = min(needed_bits_unsigned(OR of the group's raw uint16 values),
//     profile) when dynamic, else at the profile; the detector counters move
//     only when dynamic;
//   - the ORs come from one ActOrPlanes per input (sim/or_planes.hpp); a
//     static spec uses a closed form and never reads the input;
//   - every sum is an integer, and streamed_pa converts to double once, so
//     the result is exact and independent of summation order.
//
// Byte-identical to the dispatcher accounting of the scalar oracle (pinned
// by the golden digests in tests/test_lut_golden.cpp and
// tests/test_functional_golden.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "common/bitops.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace loom::sim {

/// Streaming semantics of one conv layer run — the backend contract's
/// input. Mirrors what the dispatcher + arch::Sip grid would do:
/// activations serialized at `act_precision` planes (optionally trimmed per
/// column group by dynamic detection), weights at `weight_precision`
/// two's-complement planes with a negated MSB pass. `act_signed`
/// additionally negates the activation MSB plane (requires act_precision ==
/// 16; used by the DPNN path).
struct SliceSpec {
  int act_precision = kBasePrecision;
  int weight_precision = kBasePrecision;
  bool act_signed = false;
  bool dynamic = false;
};

/// Cycle and data-movement accounting identical to what the scalar
/// dispatcher-driven grid reports for the same layer — the backend
/// contract's output beside the exact accumulators.
struct ConvStats {
  std::uint64_t cycles = 0;
  double streamed_pa = 0.0;  ///< sum of streamed Pa over chunks
  std::int64_t chunks = 0;
  std::uint64_t act_bits_streamed = 0;
  std::uint64_t weight_bits_streamed = 0;
  std::uint64_t detect_invocations = 0;
  std::uint64_t detect_values = 0;
};

/// The SIP grid the stats are modelled on.
struct StatsGrid {
  int rows = 16;   ///< filters per filter block
  int cols = 16;   ///< windows per dynamic-detection column group
  int lanes = 16;  ///< inner positions per input chunk
};

/// Stats of running `layer` over `inputs` (windows concatenated in request
/// order) under `spec` on `grid`. Builds ActOrPlanes on the shared pool when
/// spec.dynamic, so it must not be called from inside a shared_pool() task.
[[nodiscard]] ConvStats conv_stream_stats(
    const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
    const SliceSpec& spec, const StatsGrid& grid);

}  // namespace loom::sim
