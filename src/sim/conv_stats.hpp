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
// Byte-identical to the inline accounting of BitsliceEngine and the scalar
// oracle (pinned by the golden digests in tests/test_lut_golden.cpp and
// tests/test_bitslice_engine.cpp).
#pragma once

#include <span>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "sim/bitslice_engine.hpp"

namespace loom::sim {

/// The SIP grid the stats are modelled on.
struct StatsGrid {
  int rows = 16;   ///< filters per filter block
  int cols = 16;   ///< windows per dynamic-detection column group
  int lanes = 16;  ///< inner positions per input chunk
};

/// Stats of running `layer` over `inputs` (windows concatenated in request
/// order) under `spec` on `grid`. Builds ActOrPlanes on the shared pool when
/// spec.dynamic, so it must not be called from inside a shared_pool() task.
[[nodiscard]] BitsliceEngine::ConvStats conv_stream_stats(
    const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
    const BitsliceEngine::SliceSpec& spec, const StatsGrid& grid);

}  // namespace loom::sim
