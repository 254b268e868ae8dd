// LUT functional engine: T-MAC-style table-lookup matmul (see SNIPPETS.md,
// MiCo-Lib qmatmul.c). Activations are cut into groups of 8; each group
// precomputes the 256-entry table of all partial sums
//
//     lut[m] = sum_{j in m} a[j]          (m = an 8-bit weight-slice mask)
//
// with the classic doubling fill (one add per entry), once per (window,
// group) and *outside* the output-feature loop — so for Co output features
// the build cost amortizes to 256/Co adds per group. A weight's Pw-bit
// two's-complement row decomposes into shifted 1-bit slices:
//
//     w = u - msb * 2^Pw,  u = raw & (2^Pw - 1)
//  => sum_j a_j w_j = sum_{b<Pw-1} lut[slice_b] << b  -  lut[slice_{Pw-1}] << (Pw-1)
//
// so the hot loop is Pw table lookups per (output, group) — zero multiplies,
// and the cost is *independent of the activation precision* (a bit-serial
// kernel's cost grows with every streamed activation plane). Table lookups
// pay off at very low Pw; at the paper's profiles (conv Pw 11-12, FC Pw
// 9-10) the bit-parallel `madd` kernel (sim/madd_engine.hpp) beats it on
// every AlexNet layer, and the autotuner picks per cell by measurement.
//
// The OR-plane detected group precisions are reused two ways:
//   - dead groups (all-zero activations) are skipped entirely via a live
//     list (their table would be identically zero);
//   - tables are built in int16 when the group's partial sums provably fit
//     (detected magnitude <= 12 bits), halving the table bytes the hot
//     loop touches.
//
// Contract: byte-identical exact accumulators AND byte-identical ConvStats
// to the scalar oracle. The stats come from the shared
// conv-stats pass (sim/conv_stats.hpp), which sums integers and converts
// streamed_pa to double once, so no summation order is involved.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "common/cpuid.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "sim/conv_stats.hpp"

namespace loom::sim {

/// The engine's hot loops (table build, lookup walk, weight-row packing) as
/// standalone kernels with an explicit SIMD tier, runtime-dispatched
/// (scalar / AVX2 / AVX-512) behind the shared common/cpuid probe. Exposed
/// so benches and tests can pit tiers against each other directly; the
/// engine itself calls them at common::simd_level(). Every tier computes
/// bit-exact identical results — the vector fill/walk are pure integer
/// reassociations of the scalar ones and the vector packs emit the same
/// bytes — so the registry-wide byte-identity contract holds under any
/// forced tier.
namespace lut_kernels {

/// Padding contract for the vector paths: dword gathers may *read* (never
/// write) a few bytes past the logical end of a buffer. Table buffers need
/// kLutPadEntries extra entries beyond the last 256-entry table; packed
/// weight-slice buffers need kWeightPadBytes extra bytes.
inline constexpr std::size_t kLutPadEntries = 2;
inline constexpr std::size_t kWeightPadBytes = 4;

/// Doubling fill of one 256-entry partial-sum table from the group's 8
/// activation values: lut[m | 1<<j] = lut[m] + a[j]. The requested tier is
/// clamped to what the hardware supports.
void build_table_i16(common::SimdLevel level, const std::int32_t* a,
                     std::int16_t* lut) noexcept;
void build_table_i32(common::SimdLevel level, const std::int32_t* a,
                     std::int32_t* lut) noexcept;

/// Lookup+accumulate walk over `n` group tables for one output feature:
/// returns sum over t < n of the signed slice decomposition
///   sum_{b<pw-1} lut_t[wb_t[b]] << b  -  lut_t[wb_t[pw-1]] << (pw-1)
/// where lut_t = luts + t*256 and wb_t = wbytes + bidx[t] (bidx holds byte
/// offsets of each group's pw slice bytes — absolute, so callers can walk a
/// live-group subset of a larger packed row without copying).
std::int64_t accumulate_i16(common::SimdLevel level, const std::int16_t* luts,
                            const std::uint8_t* wbytes,
                            const std::int32_t* bidx, std::int64_t n,
                            int pw) noexcept;
std::int64_t accumulate_i32(common::SimdLevel level, const std::int32_t* luts,
                            const std::uint8_t* wbytes,
                            const std::int32_t* bidx, std::int64_t n,
                            int pw) noexcept;

/// Weight bit-plane packing of one whole row of `n` weights into the
/// [g8][b] slice layout the walk gathers from: out[g8 * pw + b] holds, in
/// bit j, bit b of (uint16(w[g8 * 8 + j]) & w_mask), with a short last
/// group zero-filled. Writes exactly ceil(n / 8) * pw bytes and reads
/// exactly n weights. Tiers: scalar (per set bit), AVX2 (byte planes +
/// shift/movemask), AVX-512BW (one test_epi16_mask per weight bit); both
/// vector tiers take 32 weights (4 groups) a step. The requested tier is
/// clamped to what the hardware supports.
void pack_row(common::SimdLevel level, const std::int16_t* w, std::int64_t n,
              std::uint32_t w_mask, std::uint8_t* out, int pw) noexcept;

}  // namespace lut_kernels

class LutEngine {
 public:
  struct Options {
    int rows = 16;   ///< SIP rows (cycle accounting only)
    int cols = 16;   ///< dynamic-detection group width (stats accounting)
    int lanes = 16;  ///< products per SIP per cycle (stats accounting)
    int jobs = 1;    ///< (group, slab) fan-out over the shared pool; 0 = all
  };

  /// Conv table tiling: tables live for this many 8-activation groups at a
  /// time (tile working set = 64 * 256 entries, sized for L1).
  static constexpr std::int64_t kGroupTile = 64;

  /// The grid envelope every fast backend accepts (cols <= 64 slabs,
  /// lanes <= 32 chunks).
  [[nodiscard]] static bool supports(const Options& opts) noexcept {
    return opts.cols >= 1 && opts.cols <= 64 && opts.lanes >= 1 &&
           opts.lanes <= 32 && opts.rows >= 1;
  }

  explicit LutEngine(Options opts);

  /// Batched convolution: the window axes of all requests concatenate into
  /// one column-group range (sim/conv_stats.hpp). Accumulators land in
  /// wides[r] (preallocated, one per input). Weight rows pack once per
  /// call, striped over the shared pool.
  ConvStats run_conv_batch(const nn::Layer& layer,
                           std::span<const nn::Tensor* const> inputs,
                           const nn::Tensor& weights, const SliceSpec& spec,
                           std::span<nn::WideTensor* const> wides);

  /// Fully-connected layer: signed 16-bit activations, `weight_precision`
  /// two's-complement weight planes. Tables build once per request over
  /// the whole input; every output neuron then packs its full weight row
  /// (lut_kernels::pack_row) and walks Pw lookups per live group.
  void run_fc(const nn::Layer& layer, const nn::Tensor& input,
              const nn::Tensor& weights, int weight_precision,
              nn::WideTensor& wide);

  /// Batched FC: per-request runs (each already amortizes its tables over
  /// all output neurons; `madd` streams each weight row once per batch and
  /// is the better batch kernel, and the autotuner keys on batch size).
  void run_fc_batch(const nn::Layer& layer,
                    std::span<const nn::Tensor* const> inputs,
                    const nn::Tensor& weights, int weight_precision,
                    std::span<nn::WideTensor* const> wides);

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

 private:
  struct Scratch {
    std::vector<std::int32_t> acts;      ///< gathered group values
    std::vector<std::int32_t> live;      ///< live 8-act group indices
    std::vector<std::int32_t> bidx;      ///< live groups' slice byte offsets
    std::vector<std::int32_t> lut32;     ///< tables, wide entries
    std::vector<std::int16_t> lut16;     ///< tables, narrow entries
    std::vector<std::int64_t> acc;       ///< per-output accumulators
  };

  void conv_slab(const nn::Layer& layer,
                 std::span<const nn::Tensor* const> inputs,
                 const SliceSpec& spec,
                 std::int64_t g, std::int64_t slab,
                 std::span<nn::WideTensor* const> wides,
                 std::span<const std::uint8_t> wpack, Scratch& scratch) const;

  Options opts_;
  std::int64_t slab_windows_;  ///< windows per slab (multiple of cols)
  common::SimdLevel simd_;     ///< effective dispatch tier, probed once
};

}  // namespace loom::sim
