#include "sim/madd_engine.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "sim/conv_stats.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LOOM_MADD_X86 1
#endif

namespace loom::sim {

namespace madd_kernels {

namespace {

constexpr int kR = kRowBlock;
constexpr std::int64_t kPairStride = std::int64_t{kStrip} * 2;  // int16 per strip pair

/// sext_Pw(raw & (2^Pw - 1)) with shift = 16 - Pw: the scalar twin of the
/// vector tiers' vpsllw/vpsraw pair.
inline std::int32_t sext_shift(std::int16_t raw, int shift) noexcept {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(
             static_cast<std::uint16_t>(raw) << shift)) >>
         shift;
}

/// One packed weight pair (two int16, low half = even K) as the int32 a
/// vpmaddwd broadcast wants.
inline std::int32_t load_pair(const std::int16_t* p) noexcept {
  std::int32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void gemm_tile_scalar(const std::int16_t* w, const std::int16_t* panel,
                      std::int64_t strip_stride, int nstrips,
                      std::int64_t kpairs, std::int64_t* out,
                      std::int64_t ldo) noexcept {
  for (int r = 0; r < kR; ++r) {
    for (int s = 0; s < nstrips; ++s) {
      std::int64_t acc[kStrip] = {};
      const std::int16_t* a = panel + s * strip_stride;
      for (std::int64_t p = 0; p < kpairs; ++p, a += kPairStride) {
        const std::int64_t w0 = w[(p * kR + r) * 2];
        const std::int64_t w1 = w[(p * kR + r) * 2 + 1];
        for (int c = 0; c < kStrip; ++c) {
          acc[c] += a[2 * c] * w0 + a[2 * c + 1] * w1;
        }
      }
      std::memcpy(out + r * ldo + s * kStrip, acc, sizeof acc);
    }
  }
}

void gemv_scalar(const std::int16_t* w, std::int64_t rows, std::int64_t k,
                 int shift, const std::int16_t* acts, std::int64_t act_stride,
                 int nacts, std::int64_t* out) noexcept {
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int16_t* wr = w + r * k;
    for (int j = 0; j < nacts; ++j) {
      const std::int16_t* a = acts + j * act_stride;
      std::int64_t acc = 0;
      for (std::int64_t i = 0; i < k; ++i) {
        acc += static_cast<std::int64_t>(sext_shift(wr[i], shift)) * a[i];
      }
      out[r * nacts + j] = acc;
    }
  }
}

/// Weight rows [row0, row0 + kR) of a pack_weights block, pairs [p0, kpairs).
void pack_block_scalar(const std::int16_t* w, std::int64_t rows,
                       std::int64_t k, int shift, std::int64_t row0,
                       std::int64_t p0, std::int16_t* block) noexcept {
  const std::int64_t kpairs = ceil_div(k, std::int64_t{2});
  for (int r = 0; r < kR; ++r) {
    const bool live = row0 + r < rows;
    const std::int16_t* src = w + (row0 + r) * k;
    for (std::int64_t i = 2 * p0; i < 2 * kpairs; ++i) {
      block[((i >> 1) * kR + r) * 2 + (i & 1)] =
          live && i < k ? static_cast<std::int16_t>(sext_shift(src[i], shift))
                        : std::int16_t{0};
    }
  }
}

void panel_strip_scalar(const std::int16_t* src, const std::int64_t* cols,
                        const std::int64_t* taps, std::int64_t ntaps,
                        std::int16_t* out) noexcept {
  const std::int64_t kpairs = ceil_div(ntaps, std::int64_t{2});
  for (std::int64_t t = 0; t < 2 * kpairs; ++t) {
    std::int16_t* o = out + (t >> 1) * kPairStride + (t & 1);
    for (int j = 0; j < kStrip; ++j) {
      o[2 * j] = t < ntaps && cols[j] >= 0 ? src[cols[j] + taps[t]]
                                           : std::int16_t{0};
    }
  }
}

#if defined(LOOM_MADD_X86)

// ---- AVX-512BW ------------------------------------------------------------
// Conv tile: kR broadcast weight pairs x NV panel vectors of 16 columns per
// K-pair, kR * NV int32 accumulators in registers.

// Sign-extend int32 lanes 0..7 / 8..15 to int64. The maskz forms pass an
// explicit zero source: GCC 12 flags the _mm512_undefined_* placeholder
// behind the plain forms (and _mm512_castsi512_si256) under
// -Wmaybe-uninitialized.
__attribute__((target("avx512f"))) inline __m512i widen_lo(__m512i x) noexcept {
  return _mm512_maskz_cvtepi32_epi64(0xFF,
                                     _mm512_maskz_extracti64x4_epi64(0xF, x, 0));
}
__attribute__((target("avx512f"))) inline __m512i widen_hi(__m512i x) noexcept {
  return _mm512_maskz_cvtepi32_epi64(0xFF,
                                     _mm512_maskz_extracti64x4_epi64(0xF, x, 1));
}

template <int NV>
__attribute__((target("avx512f,avx512bw"))) void gemm_tile_avx512(
    const std::int16_t* w, const std::int16_t* panel,
    std::int64_t strip_stride, std::int64_t kpairs, std::int64_t chunk,
    std::int64_t* out, std::int64_t ldo) noexcept {
  const __m512i zero = _mm512_setzero_si512();
  for (int r = 0; r < kR; ++r) {
    for (int c = 0; c < NV * kStrip; c += 8) {
      _mm512_storeu_si512(out + r * ldo + c, zero);
    }
  }
  for (std::int64_t p0 = 0; p0 < kpairs; p0 += chunk) {
    const std::int64_t p1 = std::min(kpairs, p0 + chunk);
    __m512i acc[kR][NV];
    for (int r = 0; r < kR; ++r) {
      for (int v = 0; v < NV; ++v) acc[r][v] = zero;
    }
    const std::int16_t* a = panel + p0 * kPairStride;
    const std::int16_t* wp = w + p0 * kR * 2;
    for (std::int64_t p = p0; p < p1; ++p, a += kPairStride, wp += kR * 2) {
      __m512i av[NV];
      for (int v = 0; v < NV; ++v) {
        av[v] = _mm512_loadu_si512(a + v * strip_stride);
      }
      for (int r = 0; r < kR; ++r) {
        const __m512i b = _mm512_set1_epi32(load_pair(wp + 2 * r));
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = _mm512_add_epi32(acc[r][v], _mm512_madd_epi16(av[v], b));
        }
      }
    }
    for (int r = 0; r < kR; ++r) {
      for (int v = 0; v < NV; ++v) {
        std::int64_t* o = out + r * ldo + v * kStrip;
        const __m512i lo = widen_lo(acc[r][v]);
        const __m512i hi = widen_hi(acc[r][v]);
        _mm512_storeu_si512(o, _mm512_add_epi64(_mm512_loadu_si512(o), lo));
        _mm512_storeu_si512(o + 8,
                            _mm512_add_epi64(_mm512_loadu_si512(o + 8), hi));
      }
    }
  }
}

// FC block: kR weight rows (read in place, sign-extended in registers) x NA
// activation rows, 32 K per step; the K tail is a masked load, so no row is
// ever read past its end.
template <int NA>
__attribute__((target("avx512f,avx512bw"))) void gemv_block_avx512(
    const std::int16_t* const* rp, std::int64_t k, int shift,
    const std::int16_t* acts, std::int64_t act_stride, std::int64_t chunk,
    std::int64_t* tot) noexcept {
  const __m128i sh = _mm_cvtsi32_si128(shift);
  const std::int64_t full = k / 32;
  const std::int64_t steps = ceil_div(k, std::int64_t{32});
  const auto tail = static_cast<__mmask32>(
      k % 32 == 0 ? 0xFFFFFFFFu : (std::uint32_t{1} << (k % 32)) - 1);
  for (std::int64_t s0 = 0; s0 < steps; s0 += chunk) {
    const std::int64_t s1 = std::min(steps, s0 + chunk);
    __m512i acc[kR][NA];
    for (int r = 0; r < kR; ++r) {
      for (int j = 0; j < NA; ++j) acc[r][j] = _mm512_setzero_si512();
    }
    for (std::int64_t s = s0; s < s1; ++s) {
      const std::int64_t off = s * 32;
      __m512i av[NA];
      for (int j = 0; j < NA; ++j) {
        av[j] = _mm512_loadu_si512(acts + j * act_stride + off);
      }
      for (int r = 0; r < kR; ++r) {
        __m512i wv = s < full ? _mm512_loadu_si512(rp[r] + off)
                              : _mm512_maskz_loadu_epi16(tail, rp[r] + off);
        wv = _mm512_sra_epi16(_mm512_sll_epi16(wv, sh), sh);
        for (int j = 0; j < NA; ++j) {
          acc[r][j] = _mm512_add_epi32(acc[r][j], _mm512_madd_epi16(wv, av[j]));
        }
      }
    }
    for (int r = 0; r < kR; ++r) {
      for (int j = 0; j < NA; ++j) {
        alignas(64) std::int64_t lanes[8];
        _mm512_store_si512(lanes, _mm512_add_epi64(widen_lo(acc[r][j]),
                                                   widen_hi(acc[r][j])));
        for (const std::int64_t l : lanes) tot[r * NA + j] += l;
      }
    }
  }
}

// ---- AVX2 -----------------------------------------------------------------
// Conv tile: kR rows x one 16-column strip (two ymm) at a time.

__attribute__((target("avx2"))) void gemm_tile_avx2(
    const std::int16_t* w, const std::int16_t* panel,
    std::int64_t strip_stride, int nstrips, std::int64_t kpairs,
    std::int64_t chunk, std::int64_t* out, std::int64_t ldo) noexcept {
  for (int s = 0; s < nstrips; ++s) {
    for (int r = 0; r < kR; ++r) {
      std::memset(out + r * ldo + s * kStrip, 0, kStrip * sizeof(std::int64_t));
    }
    for (std::int64_t p0 = 0; p0 < kpairs; p0 += chunk) {
      const std::int64_t p1 = std::min(kpairs, p0 + chunk);
      __m256i acc[kR][2];
      for (int r = 0; r < kR; ++r) {
        acc[r][0] = _mm256_setzero_si256();
        acc[r][1] = _mm256_setzero_si256();
      }
      const std::int16_t* a = panel + s * strip_stride + p0 * kPairStride;
      const std::int16_t* wp = w + p0 * kR * 2;
      for (std::int64_t p = p0; p < p1; ++p, a += kPairStride, wp += kR * 2) {
        const __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
        const __m256i a1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 16));
        for (int r = 0; r < kR; ++r) {
          const __m256i b = _mm256_set1_epi32(load_pair(wp + 2 * r));
          acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(a0, b));
          acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(a1, b));
        }
      }
      for (int r = 0; r < kR; ++r) {
        for (int h = 0; h < 2; ++h) {
          std::int64_t* o = out + r * ldo + s * kStrip + h * 8;
          const __m256i x = acc[r][h];
          const __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(x));
          const __m256i hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(x, 1));
          auto* o0 = reinterpret_cast<__m256i*>(o);
          auto* o1 = reinterpret_cast<__m256i*>(o + 4);
          _mm256_storeu_si256(o0, _mm256_add_epi64(_mm256_loadu_si256(o0), lo));
          _mm256_storeu_si256(o1, _mm256_add_epi64(_mm256_loadu_si256(o1), hi));
        }
      }
    }
  }
}

// FC block: kR rows x NA activation rows, 16 K per step; the K tail (fewer
// than 16 values) runs scalar so no row is read past its end.
template <int NA>
__attribute__((target("avx2"))) void gemv_block_avx2(
    const std::int16_t* const* rp, std::int64_t k, int shift,
    const std::int16_t* acts, std::int64_t act_stride, std::int64_t chunk,
    std::int64_t* tot) noexcept {
  const __m128i sh = _mm_cvtsi32_si128(shift);
  const std::int64_t full = k / 16;
  for (std::int64_t s0 = 0; s0 < full; s0 += chunk) {
    const std::int64_t s1 = std::min(full, s0 + chunk);
    __m256i acc[kR][NA];
    for (int r = 0; r < kR; ++r) {
      for (int j = 0; j < NA; ++j) acc[r][j] = _mm256_setzero_si256();
    }
    for (std::int64_t s = s0; s < s1; ++s) {
      const std::int64_t off = s * 16;
      __m256i av[NA];
      for (int j = 0; j < NA; ++j) {
        av[j] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(acts + j * act_stride + off));
      }
      for (int r = 0; r < kR; ++r) {
        __m256i wv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rp[r] + off));
        wv = _mm256_sra_epi16(_mm256_sll_epi16(wv, sh), sh);
        for (int j = 0; j < NA; ++j) {
          acc[r][j] = _mm256_add_epi32(acc[r][j], _mm256_madd_epi16(wv, av[j]));
        }
      }
    }
    for (int r = 0; r < kR; ++r) {
      for (int j = 0; j < NA; ++j) {
        const __m256i x = acc[r][j];
        const __m256i s64 = _mm256_add_epi64(
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(x)),
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(x, 1)));
        alignas(32) std::int64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), s64);
        tot[r * NA + j] += lanes[0] + lanes[1] + lanes[2] + lanes[3];
      }
    }
  }
  for (std::int64_t i = full * 16; i < k; ++i) {
    for (int r = 0; r < kR; ++r) {
      const std::int64_t wv = sext_shift(rp[r][i], shift);
      for (int j = 0; j < NA; ++j) tot[r * NA + j] += wv * acts[j * act_stride + i];
    }
  }
}

// Weight pack: four rows x 8 K-pairs per step, each pair an int32 after
// the sign extension, so the [pair][row][2] interleave is a 4 x 4 int32
// transpose per 128-bit lane.
__attribute__((target("avx2"))) void pack_block_avx2(
    const std::int16_t* w, std::int64_t rows, std::int64_t k, int shift,
    std::int64_t row0, std::int16_t* block) noexcept {
  if (row0 + kR > rows) {  // a block with dead rows
    pack_block_scalar(w, rows, k, shift, row0, 0, block);
    return;
  }
  const __m128i sh = _mm_cvtsi32_si128(shift);
  const std::int16_t* r0 = w + row0 * k;
  std::int64_t p = 0;
  for (; 2 * p + 16 <= k; p += 8) {
    __m256i v[kR];
    for (int r = 0; r < kR; ++r) {
      v[r] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(r0 + r * k + 2 * p));
      v[r] = _mm256_sra_epi16(_mm256_sll_epi16(v[r], sh), sh);
    }
    const __m256i t0 = _mm256_unpacklo_epi32(v[0], v[1]);
    const __m256i t1 = _mm256_unpackhi_epi32(v[0], v[1]);
    const __m256i t2 = _mm256_unpacklo_epi32(v[2], v[3]);
    const __m256i t3 = _mm256_unpackhi_epi32(v[2], v[3]);
    // u[q] holds pairs q (low lane) and q + 4 (high lane), rows 0..3 each.
    const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
    const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
    const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
    const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
    auto* o = reinterpret_cast<__m256i*>(block + p * kR * 2);
    _mm256_storeu_si256(o, _mm256_permute2x128_si256(u0, u1, 0x20));
    _mm256_storeu_si256(o + 1, _mm256_permute2x128_si256(u2, u3, 0x20));
    _mm256_storeu_si256(o + 2, _mm256_permute2x128_si256(u0, u1, 0x31));
    _mm256_storeu_si256(o + 3, _mm256_permute2x128_si256(u2, u3, 0x31));
  }
  pack_block_scalar(w, rows, k, shift, row0, p, block);
}

// Panel strip: per tap, the 16 column values as one vector: one load for a
// strip that is a single run, else one load and blend per run.
struct PanelRun {
  std::int64_t base;  ///< cols[j0] - j0: lane j reads src[base + j + tap]
  __m256i lanes;      ///< int16 lanes [j0, j1) set
};

__attribute__((target("avx2"))) inline __m256i panel_tap(
    const std::int16_t* src, const PanelRun* runs, int nruns, bool whole,
    std::int64_t tap) noexcept {
  if (whole) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + runs[0].base + tap));
  }
  __m256i v = _mm256_setzero_si256();
  for (int r = 0; r < nruns; ++r) {
    const __m256i x = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + runs[r].base + tap));
    v = _mm256_blendv_epi8(v, x, runs[r].lanes);
  }
  return v;
}

__attribute__((target("avx2"))) void panel_strip_avx2(
    const std::int16_t* src, const std::int64_t* cols,
    const std::int64_t* taps, std::int64_t ntaps, std::int16_t* out) noexcept {
  PanelRun runs[kStrip];
  int nruns = 0;
  const __m256i iota = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         12, 13, 14, 15);
  for (int j = 0; j < kStrip;) {
    if (cols[j] < 0) {
      ++j;
      continue;
    }
    const int j0 = j;
    while (j + 1 < kStrip && cols[j + 1] == cols[j] + 1) ++j;
    ++j;
    runs[nruns++] = PanelRun{
        cols[j0] - j0,
        _mm256_and_si256(
            _mm256_cmpgt_epi16(iota, _mm256_set1_epi16(static_cast<std::int16_t>(j0 - 1))),
            _mm256_cmpgt_epi16(_mm256_set1_epi16(static_cast<std::int16_t>(j)), iota))};
  }
  const bool whole = nruns == 1 && cols[0] >= 0 && cols[kStrip - 1] >= 0;
  const std::int64_t kpairs = ceil_div(ntaps, std::int64_t{2});
  for (std::int64_t p = 0; p < kpairs; ++p, out += kPairStride) {
    const __m256i even = panel_tap(src, runs, nruns, whole, taps[2 * p]);
    const __m256i odd = 2 * p + 1 < ntaps
                            ? panel_tap(src, runs, nruns, whole, taps[2 * p + 1])
                            : _mm256_setzero_si256();
    // unpack gives columns 0-3 | 8-11 and 4-7 | 12-15; the lane permutes
    // put them in column order.
    const __m256i lo = _mm256_unpacklo_epi16(even, odd);
    const __m256i hi = _mm256_unpackhi_epi16(even, odd);
    auto* o = reinterpret_cast<__m256i*>(out);
    _mm256_storeu_si256(o, _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_storeu_si256(o + 1, _mm256_permute2x128_si256(lo, hi, 0x31));
  }
}

/// Row blocks of kR (the last padded by repeating its final row, whose
/// sums are dropped) x activation groups of up to kMaxNa; each row block
/// streams from memory once and serves every group from cache.
/// block(nj, rows, acts, tot) adds the kR x nj sums into tot.
template <int kMaxNa, typename Block>
void gemv_blocked(const std::int16_t* w, std::int64_t rows, std::int64_t k,
                  const std::int16_t* acts, std::int64_t act_stride, int nacts,
                  std::int64_t* out, Block&& block) {
  for (std::int64_t r0 = 0; r0 < rows; r0 += kR) {
    const std::int16_t* rp[kR];
    for (int r = 0; r < kR; ++r) rp[r] = w + std::min(r0 + r, rows - 1) * k;
    const int nr = static_cast<int>(std::min<std::int64_t>(kR, rows - r0));
    for (int j0 = 0; j0 < nacts; j0 += kMaxNa) {
      const int nj = std::min(kMaxNa, nacts - j0);
      std::int64_t tot[kR * kMaxNa] = {};
      block(nj, rp, acts + j0 * act_stride, tot);
      for (int r = 0; r < nr; ++r) {
        for (int j = 0; j < nj; ++j) {
          out[(r0 + r) * nacts + j0 + j] = tot[r * nj + j];
        }
      }
    }
  }
}

#endif  // LOOM_MADD_X86

}  // namespace

std::int64_t chunk_pairs(std::int64_t max_a, std::int64_t max_w) noexcept {
  const std::int64_t pair_max = 2 * std::max<std::int64_t>(max_a, 1) *
                                std::max<std::int64_t>(max_w, 1);
  return std::int64_t{INT32_MAX} / pair_max;
}

void gemm_tile(common::SimdLevel level, const std::int16_t* w,
               const std::int16_t* panel, std::int64_t strip_stride,
               int nstrips, std::int64_t kpairs, std::int64_t chunk,
               std::int64_t* out, std::int64_t ldo) noexcept {
#if defined(LOOM_MADD_X86)
  level = std::min(level, common::hardware_simd_level());
  if (level >= common::SimdLevel::kAvx512) {
    switch (nstrips) {
      case 1:
        return gemm_tile_avx512<1>(w, panel, strip_stride, kpairs, chunk, out, ldo);
      case 2:
        return gemm_tile_avx512<2>(w, panel, strip_stride, kpairs, chunk, out, ldo);
      case 3:
        return gemm_tile_avx512<3>(w, panel, strip_stride, kpairs, chunk, out, ldo);
      default:
        return gemm_tile_avx512<4>(w, panel, strip_stride, kpairs, chunk, out, ldo);
    }
  }
  if (level >= common::SimdLevel::kAvx2) {
    return gemm_tile_avx2(w, panel, strip_stride, nstrips, kpairs, chunk, out,
                          ldo);
  }
#else
  (void)level;
  (void)chunk;
#endif
  gemm_tile_scalar(w, panel, strip_stride, nstrips, kpairs, out, ldo);
}

void pack_weights(common::SimdLevel level, const std::int16_t* w,
                  std::int64_t rows, std::int64_t k, int pw,
                  std::int16_t* out) noexcept {
  const int shift = static_cast<int>(kBasePrecision) - pw;
  const std::int64_t block_len = ceil_div(k, std::int64_t{2}) * kR * 2;
#if defined(LOOM_MADD_X86)
  if (std::min(level, common::hardware_simd_level()) >= common::SimdLevel::kAvx2) {
    for (std::int64_t row0 = 0; row0 < rows; row0 += kR, out += block_len) {
      pack_block_avx2(w, rows, k, shift, row0, out);
    }
    return;
  }
#else
  (void)level;
#endif
  for (std::int64_t row0 = 0; row0 < rows; row0 += kR, out += block_len) {
    pack_block_scalar(w, rows, k, shift, row0, 0, out);
  }
}

void panel_strip(common::SimdLevel level, const std::int16_t* src,
                 const std::int64_t* cols, const std::int64_t* taps,
                 std::int64_t ntaps, std::int16_t* out) noexcept {
#if defined(LOOM_MADD_X86)
  if (std::min(level, common::hardware_simd_level()) >= common::SimdLevel::kAvx2) {
    return panel_strip_avx2(src, cols, taps, ntaps, out);
  }
#else
  (void)level;
#endif
  panel_strip_scalar(src, cols, taps, ntaps, out);
}

void gemv(common::SimdLevel level, const std::int16_t* w, std::int64_t rows,
          std::int64_t k, int pw, const std::int16_t* acts,
          std::int64_t act_stride, int nacts, std::int64_t chunk,
          std::int64_t* out) noexcept {
  const int shift = static_cast<int>(kBasePrecision) - pw;
  if (rows <= 0) return;
#if defined(LOOM_MADD_X86)
  level = std::min(level, common::hardware_simd_level());
  if (level >= common::SimdLevel::kAvx512) {
    gemv_blocked<4>(w, rows, k, acts, act_stride, nacts, out,
                    [&](int nj, const std::int16_t* const* rp,
                        const std::int16_t* a, std::int64_t* tot) {
                      switch (nj) {
                        case 1: return gemv_block_avx512<1>(rp, k, shift, a, act_stride, chunk, tot);
                        case 2: return gemv_block_avx512<2>(rp, k, shift, a, act_stride, chunk, tot);
                        case 3: return gemv_block_avx512<3>(rp, k, shift, a, act_stride, chunk, tot);
                        default: return gemv_block_avx512<4>(rp, k, shift, a, act_stride, chunk, tot);
                      }
                    });
    return;
  }
  if (level >= common::SimdLevel::kAvx2) {
    gemv_blocked<2>(w, rows, k, acts, act_stride, nacts, out,
                    [&](int nj, const std::int16_t* const* rp,
                        const std::int16_t* a, std::int64_t* tot) {
                      if (nj == 1) {
                        return gemv_block_avx2<1>(rp, k, shift, a, act_stride, chunk, tot);
                      }
                      return gemv_block_avx2<2>(rp, k, shift, a, act_stride, chunk, tot);
                    });
    return;
  }
#else
  (void)level;
  (void)chunk;
#endif
  gemv_scalar(w, rows, k, shift, acts, act_stride, nacts, out);
}

}  // namespace madd_kernels

namespace {

using madd_kernels::kRowBlock;
using madd_kernels::kStrip;
using madd_kernels::kTileStrips;

/// fn(lo, hi) over `stripes` contiguous slices of [0, count), on the shared
/// pool when there is more than one.
template <typename Fn>
void striped(std::size_t jobs, std::int64_t count, Fn&& fn) {
  const std::size_t stripes = std::min<std::size_t>(
      jobs, static_cast<std::size_t>(std::max<std::int64_t>(count, 1)));
  const auto slice = [&](std::size_t s) {
    fn(static_cast<std::int64_t>(static_cast<std::size_t>(count) * s / stripes),
       static_cast<std::int64_t>(static_cast<std::size_t>(count) * (s + 1) /
                                 stripes));
  };
  if (stripes <= 1) {
    slice(0);
  } else {
    shared_pool().parallel_for(stripes, slice);
  }
}

/// Activation byte split a = 256 * hi + lo (hi signed, lo in [0, 255]),
/// for operands a single int32 vpmaddwd pair cannot hold.
inline std::int16_t hi_byte(std::int32_t a) noexcept {
  return static_cast<std::int16_t>(a >> 8);
}
inline std::int16_t lo_byte(std::int32_t a) noexcept {
  return static_cast<std::int16_t>(a & 0xFF);
}
constexpr std::int64_t kByteMax = 255;  ///< max |hi|, |lo| of a split operand

/// Geometry of one staged input channel: hp zero-padded rows, each split
/// into `stride` phases of wq values, phase ph holding the padded row's
/// x = xq * stride + ph - pad.
struct Staging {
  std::int64_t in_h, in_w, pad, stride;
  std::int64_t hp, wq;
};

/// Stages one input channel: the masked (kSigned: sign-kept) activation, or
/// with kSplit its high byte into `dst` and low byte into `dst_lo`; zero
/// outside the input.
template <bool kSigned, bool kSplit>
void stage_plane(const Value* src, const Staging& st, std::uint32_t mask,
                 std::int16_t* dst, std::int16_t* dst_lo) noexcept {
  const std::int64_t s = st.stride;
  const auto put = [&](std::int64_t i, std::int32_t a) {
    if constexpr (kSplit) {
      dst[i] = hi_byte(a);
      dst_lo[i] = lo_byte(a);
    } else {
      dst[i] = static_cast<std::int16_t>(a);
    }
  };
  for (std::int64_t yp = 0; yp < st.hp; ++yp) {
    const std::int64_t y = yp - st.pad;
    for (std::int64_t ph = 0; ph < s; ++ph) {
      const std::int64_t row = (yp * s + ph) * st.wq;
      // [x0, x1) of this phase lies inside the input row.
      std::int64_t x0 = 0;
      std::int64_t x1 = 0;
      if (y >= 0 && y < st.in_h) {
        x0 = std::min(st.wq, ceil_div(std::max<std::int64_t>(st.pad - ph, 0), s));
        x1 = std::max(x0, std::min(st.wq, ceil_div(std::max<std::int64_t>(
                                                        st.in_w + st.pad - ph, 0),
                                                    s)));
      }
      const std::int64_t at = y * st.in_w + ph - st.pad;  // src index of xq = 0
      for (std::int64_t xq = 0; xq < x0; ++xq) put(row + xq, 0);
      for (std::int64_t xq = x0; xq < x1; ++xq) {
        const Value raw = src[at + xq * s];
        put(row + xq, kSigned ? static_cast<std::int32_t>(raw)
                              : static_cast<std::int32_t>(
                                    static_cast<std::uint16_t>(raw) & mask));
      }
      for (std::int64_t xq = x1; xq < st.wq; ++xq) put(row + xq, 0);
    }
  }
}

}  // namespace

MaddEngine::MaddEngine(Options opts)
    : opts_(opts), simd_(common::simd_level()) {
  LOOM_EXPECTS(opts.rows >= 1 && opts.cols >= 1 && opts.lanes >= 1);
}

ConvStats MaddEngine::run_conv_batch(
    const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
    const nn::Tensor& weights, const SliceSpec& spec,
    std::span<nn::WideTensor* const> wides) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size());
  LOOM_EXPECTS(spec.act_precision >= 1 && spec.act_precision <= kBasePrecision);
  LOOM_EXPECTS(spec.weight_precision >= 1 &&
               spec.weight_precision <= kBasePrecision);
  LOOM_EXPECTS(!spec.act_signed || spec.act_precision == kBasePrecision);
  LOOM_EXPECTS(!(spec.act_signed && spec.dynamic));
  LOOM_EXPECTS(weights.elements() == layer.weight_count());

  const ConvStats stats = conv_stream_stats(
      layer, inputs, spec,
      StatsGrid{.rows = opts_.rows, .cols = opts_.cols, .lanes = opts_.lanes});

  const std::int64_t inner = layer.inner_length();
  const std::int64_t kpairs = ceil_div(inner, std::int64_t{2});
  const std::int64_t windows = layer.windows();
  const std::int64_t total = windows * static_cast<std::int64_t>(inputs.size());
  const std::int64_t cog = layer.group_out_channels();
  const std::int64_t n_strips = ceil_div(total, std::int64_t{kStrip});
  const std::int64_t n_tiles = ceil_div(n_strips, std::int64_t{kTileStrips});
  const std::int64_t n_rb = ceil_div(cog, std::int64_t{kRowBlock});
  const std::int64_t in_h = layer.in.h;
  const std::int64_t in_w = layer.in.w;

  const int pw = spec.weight_precision;
  const std::int64_t max_w = std::int64_t{1} << (pw - 1);
  const std::int64_t max_a = spec.act_signed
                                 ? std::int64_t{1} << 15
                                 : (std::int64_t{1} << spec.act_precision) - 1;
  // Unsigned Pa = 16 does not fit int16; everything else splits only when
  // one pair can overflow.
  const bool split = (!spec.act_signed && max_a > INT16_MAX) ||
                     madd_kernels::chunk_pairs(max_a, max_w) == 0;
  const std::int64_t chunk =
      madd_kernels::chunk_pairs(split ? kByteMax : max_a, max_w);
  const auto act_mask = static_cast<std::uint32_t>(
      (std::uint32_t{1} << spec.act_precision) - 1);
  const std::size_t jobs = resolve_jobs(opts_.jobs);

  // Weights: every group's rows in kRowBlock register blocks, sign-extended
  // from Pw, zero-padded in rows and K.
  const std::int64_t block_len = kpairs * kRowBlock * 2;
  const auto wpack = std::make_unique_for_overwrite<std::int16_t[]>(
      static_cast<std::size_t>(layer.groups * n_rb * block_len));
  striped(jobs, layer.groups * n_rb, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t b = lo; b < hi; ++b) {
      const std::int64_t g = b / n_rb;
      const std::int64_t row0 = (b % n_rb) * kRowBlock;
      madd_kernels::pack_weights(
          simd_, weights.data().data() + (g * cog + row0) * inner,
          std::min<std::int64_t>(kRowBlock, cog - row0), inner, pw,
          wpack.get() + b * block_len);
    }
  });

  // The staged activations the panels read (see the file comment), with
  // kStrip values of zeroed slack at both ends for the strip's run loads; a
  // split run stages the high bytes, then the low bytes.
  const Staging st{.in_h = in_h,
                   .in_w = in_w,
                   .pad = layer.pad,
                   .stride = layer.stride,
                   .hp = (layer.out.h - 1) * layer.stride + layer.kernel_h,
                   .wq = ceil_div((layer.out.w - 1) * layer.stride + layer.kernel_w,
                                  std::int64_t{layer.stride})};
  const std::int64_t row_len = st.stride * st.wq;
  const std::int64_t plane = st.hp * row_len;
  const std::int64_t request_len = layer.in.c * plane;
  const std::int64_t staged_len = static_cast<std::int64_t>(inputs.size()) * request_len;
  const std::int64_t halves = split ? 2 : 1;
  const auto staged_buf = std::make_unique_for_overwrite<std::int16_t[]>(
      static_cast<std::size_t>(halves * staged_len + 2 * kStrip));
  std::int16_t* staged = staged_buf.get() + kStrip;
  std::int16_t* staged_lo = split ? staged + staged_len : nullptr;
  std::fill_n(staged_buf.get(), kStrip, std::int16_t{0});
  std::fill_n(staged + halves * staged_len, kStrip, std::int16_t{0});
  const auto stage = spec.act_signed
                         ? (split ? stage_plane<true, true> : stage_plane<true, false>)
                         : (split ? stage_plane<false, true> : stage_plane<false, false>);
  striped(jobs, static_cast<std::int64_t>(inputs.size()) * layer.in.c,
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t p = lo; p < hi; ++p) {
              stage(inputs[static_cast<std::size_t>(p / layer.in.c)]->data().data() +
                        (p % layer.in.c) * in_h * in_w,
                    st, act_mask, staged + p * plane,
                    split ? staged_lo + p * plane : nullptr);
            }
          });

  // Tap k = [ci][ky][kx] of a group reads its phase-split row at this
  // offset from the column's base.
  const std::int64_t khw = std::int64_t{layer.kernel_h} * layer.kernel_w;
  std::vector<std::int64_t> taps(static_cast<std::size_t>(inner));
  for (std::int64_t k = 0; k < inner; ++k) {
    const std::int64_t kx = k % layer.kernel_w;
    taps[static_cast<std::size_t>(k)] =
        ((k / khw) * st.hp + (k % khw) / layer.kernel_w) * row_len +
        (kx % st.stride) * st.wq + kx / st.stride;
  }

  // One striped pass over (group, tile, row block) tasks. Each worker builds
  // the panel of its current tile ([strip][pair][column][2], 64-byte aligned
  // strips; a split run keeps the high bytes in `panel`, the low bytes in
  // `panel_lo`) in its own buffer when its task range reaches a new tile,
  // and runs every row block of that tile against it while it is in cache.
  // Every panel value (padding columns and the K tail included) is written.
  const std::int64_t strip_stride = kpairs * kStrip * 2;
  const std::int64_t tile_panel = kTileStrips * strip_stride;  // a multiple of 32
  const std::int64_t group_offset = layer.group_in_channels() * plane;
  constexpr std::int64_t kTileCols = std::int64_t{kTileStrips} * kStrip;
  striped(jobs, layer.groups * n_tiles * n_rb, [&](std::int64_t lo, std::int64_t hi) {
    const auto panel_buf = std::make_unique_for_overwrite<std::int16_t[]>(
        static_cast<std::size_t>(halves * tile_panel + 32));
    const auto addr = reinterpret_cast<std::uintptr_t>(panel_buf.get());
    std::int16_t* panel =
        panel_buf.get() + ((64 - addr % 64) % 64) / sizeof(std::int16_t);
    std::int16_t* panel_lo = split ? panel + tile_panel : nullptr;
    std::int64_t built = -1;  // the (group, tile) now in `panel`
    alignas(64) std::int64_t tile[kRowBlock * kTileCols];
    alignas(64) std::int64_t tile_lo[kRowBlock * kTileCols];
    for (std::int64_t t = lo; t < hi; ++t) {
      const std::int64_t gt = t / n_rb;
      const std::int64_t g = gt / n_tiles;
      const std::int64_t s0 = (gt % n_tiles) * kTileStrips;
      const std::int64_t rb = t % n_rb;
      const int ns = static_cast<int>(
          std::min<std::int64_t>(kTileStrips, n_strips - s0));
      if (gt != built) {
        for (int i = 0; i < ns; ++i) {
          std::int64_t cols[kStrip];
          for (int j = 0; j < kStrip; ++j) {
            const std::int64_t n = (s0 + i) * kStrip + j;
            const std::int64_t w = n % windows;
            cols[j] = n < total ? (n / windows) * request_len +
                                      (w / layer.out.w) * layer.stride * row_len +
                                      w % layer.out.w
                                : -1;
          }
          madd_kernels::panel_strip(simd_, staged + g * group_offset, cols,
                                    taps.data(), inner, panel + i * strip_stride);
          if (split) {
            madd_kernels::panel_strip(simd_, staged_lo + g * group_offset, cols,
                                      taps.data(), inner,
                                      panel_lo + i * strip_stride);
          }
        }
        built = gt;
      }
      const std::int16_t* wb = wpack.get() + (g * n_rb + rb) * block_len;
      madd_kernels::gemm_tile(simd_, wb, panel, strip_stride, ns, kpairs, chunk,
                              tile, kTileCols);
      if (split) {
        madd_kernels::gemm_tile(simd_, wb, panel_lo, strip_stride, ns, kpairs,
                                chunk, tile_lo, kTileCols);
        for (std::int64_t r = 0; r < kRowBlock; ++r) {
          for (std::int64_t c = 0; c < ns * kStrip; ++c) {
            const std::int64_t i = r * kTileCols + c;
            tile[i] = tile[i] * 256 + tile_lo[i];
          }
        }
      }
      // Demux: each tile row's columns split into per-request segments.
      const std::int64_t c0 = s0 * kStrip;
      const std::int64_t c1 = std::min(total, c0 + ns * kStrip);
      const std::int64_t rows = std::min<std::int64_t>(kRowBlock, cog - rb * kRowBlock);
      for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t co = g * cog + rb * kRowBlock + r;
        for (std::int64_t c = c0; c < c1;) {
          const std::int64_t w0 = c % windows;
          const std::int64_t seg = std::min(c1 - c, windows - w0);
          std::memcpy(wides[static_cast<std::size_t>(c / windows)]->data().data() +
                          co * windows + w0,
                      tile + r * kTileCols + (c - c0),
                      static_cast<std::size_t>(seg) * sizeof(std::int64_t));
          c += seg;
        }
      }
    }
  });
  return stats;
}

void MaddEngine::run_fc_batch(const nn::Layer& layer,
                              std::span<const nn::Tensor* const> inputs,
                              const nn::Tensor& weights, int weight_precision,
                              std::span<nn::WideTensor* const> wides) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kFullyConnected);
  LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size());
  LOOM_EXPECTS(weight_precision >= 1 && weight_precision <= kBasePrecision);
  LOOM_EXPECTS(weights.elements() == layer.weight_count());

  const std::int64_t ci = layer.in.elements();
  const std::int64_t co_n = layer.out.c;
  const auto batch = static_cast<std::int64_t>(inputs.size());
  const std::int64_t max_w = std::int64_t{1} << (weight_precision - 1);
  const std::int64_t max_a = std::int64_t{1} << 15;  // sext16 activations
  const bool split = madd_kernels::chunk_pairs(max_a, max_w) == 0;
  const std::int64_t chunk =
      madd_kernels::chunk_pairs(split ? kByteMax : max_a, max_w);

  // Activation rows (two per request when split: high then low bytes),
  // zero-padded to whole vectors. The weights are read in place.
  const std::int64_t act_stride =
      ceil_div(ci, madd_kernels::kActPad) * madd_kernels::kActPad;
  const int nacts = static_cast<int>(batch * (split ? 2 : 1));
  const auto acts = std::make_unique_for_overwrite<std::int16_t[]>(
      static_cast<std::size_t>(nacts * act_stride));
  for (std::int64_t b = 0; b < batch; ++b) {
    const Value* in = inputs[static_cast<std::size_t>(b)]->data().data();
    if (split) {
      std::int16_t* hi = acts.get() + 2 * b * act_stride;
      std::int16_t* lo = hi + act_stride;
      for (std::int64_t i = 0; i < ci; ++i) {
        hi[i] = hi_byte(in[i]);
        lo[i] = lo_byte(in[i]);
      }
    } else {
      std::memcpy(acts.get() + b * act_stride, in,
                  static_cast<std::size_t>(ci) * sizeof(Value));
    }
  }
  for (int j = 0; j < nacts; ++j) {
    std::fill(acts.get() + j * act_stride + ci, acts.get() + (j + 1) * act_stride,
              std::int16_t{0});
  }

  // Every (row, activation row) sum is written by the GEMV.
  const auto out = std::make_unique_for_overwrite<std::int64_t[]>(
      static_cast<std::size_t>(co_n * nacts));
  const std::int64_t n_rb = ceil_div(co_n, std::int64_t{kRowBlock});
  striped(resolve_jobs(opts_.jobs), n_rb, [&](std::int64_t lo, std::int64_t hi) {
    const std::int64_t r0 = lo * kRowBlock;
    const std::int64_t r1 = std::min(co_n, hi * kRowBlock);
    madd_kernels::gemv(simd_, weights.data().data() + r0 * ci, r1 - r0, ci,
                       weight_precision, acts.get(), act_stride, nacts, chunk,
                       out.get() + r0 * nacts);
  });

  for (std::int64_t b = 0; b < batch; ++b) {
    nn::WideTensor& wide = *wides[static_cast<std::size_t>(b)];
    for (std::int64_t co = 0; co < co_n; ++co) {
      const std::int64_t* o = out.get() + co * nacts;
      wide.set_flat(co, split ? o[2 * b] * 256 + o[2 * b + 1] : o[b]);
    }
  }
}

}  // namespace loom::sim
