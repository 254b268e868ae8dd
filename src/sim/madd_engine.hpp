// Bit-parallel multiply-add functional engine: the layer math as int16
// GEMM (conv) and GEMV (FC) on `vpmaddwd`, the 16-bit multiply-add of the
// x86 vector units.
//
// The functional engines owe exact accumulators plus the *modelled* Loom
// streaming stats. Loom's speed is a hardware argument — serial lanes whose
// cycles scale with Pa x Pw — and nothing requires the kernel that computes
// the accumulators to be the one that models the hardware. The stats come
// from the shared pass in sim/conv_stats.hpp; this engine computes the
// accumulators at the full width of the host's vector multipliers, as the
// paper's bit-parallel 16-bit baseline (DaDianNao) would.
//
// Semantics are those of every other backend:
//   a = act_signed ? sext16(raw) : raw & (2^Pa - 1)
//   w = sext_Pw(raw & (2^Pw - 1))
// with exact int64 accumulators.
//
// Conv: per conv group, an im2col panel of the masked int16 activations over
// the batch-concatenated window axis, cut into strips of kStrip columns and
// K-pair-interleaved ([strip][pair][column][2]) so one vector load feeds one
// `vpmaddwd` per broadcast weight pair. The panel reads a staged copy of the
// batch's activations: masked (or sign-kept, or split, see below) once per
// value, zero-padded to the windows' extent and split per row into `stride`
// phases (x mod stride), so the values one tap reads for the windows of one
// output row are a contiguous run at any stride, and a strip costs one
// vector load per tap and run (row segment) of its columns, with no bounds
// test. Weights are packed per call, sign-extended and K-padded, into
// kRowBlock-row register blocks ([block][pair][row][2]). One striped pass
// over every group's (tile, row block) pairs then builds each tile's panel
// in a per-worker buffer and runs a register-blocked tile kernel against it
// while it is in cache; no whole-layer panel is materialized.
//
// FC: a GEMV (a GEMM when the batch has several requests) that reads the
// int16 weight rows in place and sign-extends them from Pw in registers
// (`vpsllw`/`vpsraw`); every row block streams once for the whole batch.
//
// Overflow: int32 lanes accumulate at most chunk_pairs(max|a|, max|w|) K-pairs
// before they widen into int64. When even one pair can overflow int32 (the
// DPNN 16 x 16 signed spec, where -32768 * -32768 twice is 2^31), or the
// activations do not fit int16 (Pa = 16 unsigned), each activation splits
// into a signed high byte and an unsigned low byte, a = 256 * hi + lo, and
// the two halves run as separate operands recombined in int64.
//
// Tiers: scalar, AVX2 and AVX-512BW behind common::simd_level(). All are
// exact, so every tier writes byte-identical accumulators. The panel strip
// and weight pack are load/store bound data movement; the AVX-512 tier runs
// their AVX2 code.
#pragma once

#include <cstdint>
#include <span>

#include "common/cpuid.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "sim/conv_stats.hpp"

namespace loom::sim {

/// The engine's inner kernels with an explicit SIMD tier, exposed so tests
/// and benches can pit tiers against each other. The requested tier is
/// clamped to what the hardware supports.
namespace madd_kernels {

/// Columns per panel strip: one AVX-512 vector of K-pairs.
inline constexpr int kStrip = 16;
/// Strips per conv tile (the tile kernel's register block width).
inline constexpr int kTileStrips = 4;
/// Weight rows per conv register block.
inline constexpr int kRowBlock = 4;
/// FC activation rows are zero-padded to a multiple of this many values.
inline constexpr std::int64_t kActPad = 32;

/// The most K-pairs an int32 lane may accumulate when every operand obeys
/// |a| <= max_a and |w| <= max_w: (2^31 - 1) / (2 * max_a * max_w). Zero
/// when a single pair can overflow int32.
[[nodiscard]] std::int64_t chunk_pairs(std::int64_t max_a,
                                       std::int64_t max_w) noexcept;

/// One conv tile: out[r * ldo + c] = sum over pairs p < kpairs of
///   w[(p * kRowBlock + r) * 2 + h] * strip(c)[(p * kStrip + c % kStrip) * 2 + h]
/// (h = 0, 1), exact, for r < kRowBlock and c < nstrips * kStrip, where
/// strip(c) = panel + (c / kStrip) * strip_stride. nstrips is 1..kTileStrips.
/// Lanes widen to int64 every `chunk` pairs (chunk >= 1).
void gemm_tile(common::SimdLevel level, const std::int16_t* w,
               const std::int16_t* panel, std::int64_t strip_stride,
               int nstrips, std::int64_t kpairs, std::int64_t chunk,
               std::int64_t* out, std::int64_t ldo) noexcept;

/// Packs weight rows into conv register blocks: for each block b of
/// kRowBlock rows, out[b * kpairs * kRowBlock * 2 + (p * kRowBlock + r) * 2 + h]
/// = sext_pw(w[(b * kRowBlock + r) * k + 2 * p + h]), with kpairs =
/// ceil(k / 2), and zero for rows >= `rows` (the last block's dead rows) and
/// for the K tail 2 * p + h >= k. Every output value is written.
void pack_weights(common::SimdLevel level, const std::int16_t* w,
                  std::int64_t rows, std::int64_t k, int pw,
                  std::int16_t* out) noexcept;

/// One im2col panel strip: for taps t < ntaps and columns j < kStrip,
///   out[((t / 2) * kStrip + j) * 2 + t % 2] =
///       cols[j] < 0 ? 0 : src[cols[j] + taps[t]],
/// and zero for the tail tap t = ntaps when ntaps is odd. Columns whose
/// cols[] are consecutive form a run that one vector load per tap reads:
/// src must be readable kStrip values before its lowest and after its
/// highest indexed value (reads outside a run are discarded).
void panel_strip(common::SimdLevel level, const std::int16_t* src,
                 const std::int64_t* cols, const std::int64_t* taps,
                 std::int64_t ntaps, std::int16_t* out) noexcept;

/// FC rows: out[r * nacts + j] = sum over i < k of
///   sext_pw(w[r * k + i]) * acts[j * act_stride + i]
/// for r < rows, exact. Weight rows are read in place (never past row
/// rows - 1's end); `acts` rows are zero-padded to act_stride, a multiple of
/// kActPad. Lanes widen to int64 every `chunk` vector steps (chunk >= 1).
void gemv(common::SimdLevel level, const std::int16_t* w, std::int64_t rows,
          std::int64_t k, int pw, const std::int16_t* acts,
          std::int64_t act_stride, int nacts, std::int64_t chunk,
          std::int64_t* out) noexcept;

}  // namespace madd_kernels

class MaddEngine {
 public:
  struct Options {
    int rows = 16;   ///< SIP rows (stats accounting only)
    int cols = 16;   ///< dynamic-detection group width (stats accounting)
    int lanes = 16;  ///< products per SIP per cycle (stats accounting)
    int jobs = 1;    ///< tile fan-out over the shared pool; 0 = all
  };

  explicit MaddEngine(Options opts);

  /// Batched convolution: the window axes of all requests concatenate into
  /// one column-group range, and the stats are conv_stream_stats of the
  /// whole batch. Accumulators land in wides[r] (preallocated, one per
  /// input).
  ConvStats run_conv_batch(const nn::Layer& layer,
                           std::span<const nn::Tensor* const> inputs,
                           const nn::Tensor& weights, const SliceSpec& spec,
                           std::span<nn::WideTensor* const> wides);

  /// Batched FC: signed 16-bit activations, `weight_precision`
  /// two's-complement weights read in place; each weight row streams once
  /// for the whole batch.
  void run_fc_batch(const nn::Layer& layer,
                    std::span<const nn::Tensor* const> inputs,
                    const nn::Tensor& weights, int weight_precision,
                    std::span<nn::WideTensor* const> wides);

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

 private:
  Options opts_;
  common::SimdLevel simd_;  ///< effective dispatch tier, probed once
};

}  // namespace loom::sim
