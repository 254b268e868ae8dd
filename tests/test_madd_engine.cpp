// The multiply-add engine (sim/madd_engine.hpp) at its edges: SIMD tier
// parity on ragged shapes, the int32 K-chunk widening at the worst-case
// operands, the hi/lo activation split (DPNN 16 x 16 signed, Pa = 16
// unsigned), and the raw-OR / masked-accumulator split for activations with
// bits above the profile. Accumulators are checked against nn::conv_forward /
// nn::fc_forward, stats against the scalar arch::Sip oracle's dispatcher
// accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cpuid.hpp"
#include "common/rng.hpp"
#include "nn/reference.hpp"
#include "sim/backend.hpp"
#include "sim/conv_stats.hpp"
#include "sim/madd_engine.hpp"

namespace loom::sim {
namespace {

using common::SimdLevel;

constexpr SimdLevel kTiers[] = {SimdLevel::kScalar, SimdLevel::kAvx2,
                                SimdLevel::kAvx512};

std::vector<std::int16_t> random_i16(std::size_t n, int lo, int hi,
                                     std::uint64_t seed) {
  SequentialRng rng(seed, 3);
  std::vector<std::int16_t> v(n);
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  for (auto& x : v) {
    x = static_cast<std::int16_t>(lo + static_cast<int>(rng.next_below(span)));
  }
  return v;
}

nn::Tensor filled(const nn::Shape& shape, Value v) {
  nn::Tensor t(shape);
  for (std::int64_t i = 0; i < t.elements(); ++i) t.set_flat(i, v);
  return t;
}

nn::Tensor random_tensor(const nn::Shape& shape, int lo, int hi,
                         std::uint64_t seed) {
  nn::Tensor t(shape);
  const auto v = random_i16(static_cast<std::size_t>(t.elements()), lo, hi, seed);
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    t.set_flat(i, v[static_cast<std::size_t>(i)]);
  }
  return t;
}

void expect_same(const nn::WideTensor& got, const nn::WideTensor& want) {
  ASSERT_EQ(got.elements(), want.elements());
  for (std::int64_t i = 0; i < want.elements(); ++i) {
    ASSERT_EQ(got.flat(i), want.flat(i)) << "element " << i;
  }
}

void expect_same(const ConvStats& a, const ConvStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.streamed_pa, b.streamed_pa);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.act_bits_streamed, b.act_bits_streamed);
  EXPECT_EQ(a.weight_bits_streamed, b.weight_bits_streamed);
  EXPECT_EQ(a.detect_invocations, b.detect_invocations);
  EXPECT_EQ(a.detect_values, b.detect_values);
}

/// One conv layer through MaddEngine (stats returned, accumulators in
/// `out`).
ConvStats madd_conv(const nn::Layer& layer, const nn::Tensor& input,
                    const nn::Tensor& weights, const SliceSpec& spec,
                    nn::WideTensor& out, int jobs = 2) {
  MaddEngine eng({.jobs = jobs});
  out = nn::WideTensor(nn::Shape{layer.out.c, layer.out.h, layer.out.w});
  const nn::Tensor* in[] = {&input};
  nn::WideTensor* wide[] = {&out};
  return eng.run_conv_batch(layer, in, weights, spec, wide);
}

nn::WideTensor madd_fc(const nn::Layer& layer, const nn::Tensor& input,
                       const nn::Tensor& weights, int pw) {
  MaddEngine eng({.jobs = 2});
  nn::WideTensor out(nn::Shape{layer.out.c, 1, 1});
  const nn::Tensor* in[] = {&input};
  nn::WideTensor* wide[] = {&out};
  eng.run_fc_batch(layer, in, weights, pw, wide);
  return out;
}

/// The stats the scalar arch::Sip oracle's dispatcher reports for the same
/// run (unsigned activations only): the reference conv_stream_stats is
/// pinned against.
ConvStats scalar_stats(const nn::Layer& layer, const nn::Tensor& input,
                       const nn::Tensor& weights, const SliceSpec& spec,
                       const BackendContext& ctx = {}) {
  const BackendInfo* info = BackendRegistry::instance().find("scalar");
  EXPECT_NE(info, nullptr);
  const auto oracle = info->make(ctx);
  nn::WideTensor out(nn::Shape{layer.out.c, layer.out.h, layer.out.w});
  const nn::Tensor* in[] = {&input};
  nn::WideTensor* wide[] = {&out};
  return oracle->run_conv_batch(layer, in, weights, spec, wide);
}

// ---- Kernel tiers ---------------------------------------------------------

TEST(MaddKernels, ChunkBound) {
  EXPECT_EQ(madd_kernels::chunk_pairs(32768, 32768), 0);  // -2^15 * -2^15 twice
  EXPECT_EQ(madd_kernels::chunk_pairs(255, 32768), 128);
  EXPECT_EQ(madd_kernels::chunk_pairs(32768, 512), 63);   // FC, Pw 10
  EXPECT_EQ(madd_kernels::chunk_pairs(1, 1), std::int64_t{INT32_MAX} / 2);
}

TEST(MaddKernels, GemmTileTiersAgreeOnRaggedShapes) {
  using madd_kernels::kRowBlock;
  using madd_kernels::kStrip;
  for (const std::int64_t kpairs : {1, 7, 33, 130}) {
    for (int nstrips = 1; nstrips <= madd_kernels::kTileStrips; ++nstrips) {
      const std::int64_t stride = kpairs * kStrip * 2;
      const auto panel = random_i16(static_cast<std::size_t>(stride * nstrips),
                                    -32768, 32767, kpairs * 10 + nstrips);
      const auto w = random_i16(static_cast<std::size_t>(kpairs * kRowBlock * 2),
                                -300, 300, kpairs + 99);
      // |a| <= 2^15, |w| <= 300: chunk 109 pairs, crossed at kpairs = 130.
      const std::int64_t chunk = madd_kernels::chunk_pairs(32768, 300);
      const std::int64_t ldo = nstrips * kStrip;
      std::vector<std::int64_t> want(static_cast<std::size_t>(kRowBlock * ldo));
      madd_kernels::gemm_tile(SimdLevel::kScalar, w.data(), panel.data(), stride,
                              nstrips, kpairs, chunk, want.data(), ldo);
      // The scalar tier against a direct int64 sum.
      for (int r = 0; r < kRowBlock; ++r) {
        for (std::int64_t c = 0; c < ldo; ++c) {
          std::int64_t acc = 0;
          for (std::int64_t p = 0; p < kpairs; ++p) {
            for (int h = 0; h < 2; ++h) {
              acc += std::int64_t{w[static_cast<std::size_t>((p * kRowBlock + r) * 2 + h)]} *
                     panel[static_cast<std::size_t>((c / kStrip) * stride +
                                                    (p * kStrip + c % kStrip) * 2 + h)];
            }
          }
          ASSERT_EQ(want[static_cast<std::size_t>(r * ldo + c)], acc);
        }
      }
      for (const SimdLevel level : kTiers) {
        std::vector<std::int64_t> got(want.size(), -1);
        madd_kernels::gemm_tile(level, w.data(), panel.data(), stride, nstrips,
                                kpairs, chunk, got.data(), ldo);
        EXPECT_EQ(got, want) << common::simd_level_name(level) << " kpairs "
                             << kpairs << " strips " << nstrips;
      }
    }
  }
}

TEST(MaddKernels, GemvTiersAgreeOnRaggedShapes) {
  for (const std::int64_t k : {1, 15, 31, 33, 100, 257}) {
    for (const std::int64_t rows : {1, 3, 5, 9}) {
      for (const int nacts : {1, 2, 3, 5}) {
        for (const int pw : {1, 9, 16}) {
          const std::int64_t stride =
              ceil_div(k, madd_kernels::kActPad) * madd_kernels::kActPad;
          // Raw weights carry bits above Pw: the kernel must mask them.
          const auto w = random_i16(static_cast<std::size_t>(rows * k), -32768,
                                    32767, static_cast<std::uint64_t>(k * rows + pw));
          std::vector<std::int16_t> acts(static_cast<std::size_t>(nacts * stride), 0);
          const auto vals = random_i16(static_cast<std::size_t>(nacts * k), -255,
                                       255, static_cast<std::uint64_t>(k + nacts));
          for (int j = 0; j < nacts; ++j) {
            std::copy_n(vals.begin() + j * k, k, acts.begin() + j * stride);
          }
          const std::int64_t chunk =
              madd_kernels::chunk_pairs(255, std::int64_t{1} << (pw - 1));
          std::vector<std::int64_t> want(static_cast<std::size_t>(rows * nacts));
          for (std::int64_t r = 0; r < rows; ++r) {
            for (int j = 0; j < nacts; ++j) {
              std::int64_t acc = 0;
              for (std::int64_t i = 0; i < k; ++i) {
                const auto u = static_cast<std::uint16_t>(
                    w[static_cast<std::size_t>(r * k + i)]) &
                               ((1u << pw) - 1);
                const std::int64_t wv =
                    (u >> (pw - 1)) ? std::int64_t{u} - (std::int64_t{1} << pw) : u;
                acc += wv * acts[static_cast<std::size_t>(j * stride + i)];
              }
              want[static_cast<std::size_t>(r * nacts + j)] = acc;
            }
          }
          for (const SimdLevel level : kTiers) {
            std::vector<std::int64_t> got(want.size(), -1);
            madd_kernels::gemv(level, w.data(), rows, k, pw, acts.data(), stride,
                               nacts, chunk, got.data());
            EXPECT_EQ(got, want) << common::simd_level_name(level) << " k " << k
                                 << " rows " << rows << " nacts " << nacts
                                 << " pw " << pw;
          }
        }
      }
    }
  }
}

// ---- Engine edges ---------------------------------------------------------

TEST(MaddEngine, RaggedConvBatchMatchesReference) {
  // out_c 7 (not a row-block multiple), 5x5 output x 3 requests = 75 windows
  // (not a strip multiple, strips spanning requests), K = 3 * 3 * 3 = 27 (odd).
  nn::Layer layer = nn::make_conv("ragged", nn::Shape3{6, 5, 5}, 14, 3, 1, 1, 2);
  const SliceSpec spec{.act_precision = 9,
                       .weight_precision = 7,
                       .act_signed = false,
                       .dynamic = true};
  const nn::Tensor weights =
      random_tensor(nn::Shape{layer.weight_count()}, -64, 63, 5);
  std::vector<nn::Tensor> inputs;
  for (int r = 0; r < 3; ++r) {
    inputs.push_back(random_tensor(nn::Shape{6, 5, 5}, 0, 511, 20 + r));
  }
  std::vector<nn::WideTensor> wides(3, nn::WideTensor(nn::Shape{14, 5, 5}));
  const nn::Tensor* in[] = {&inputs[0], &inputs[1], &inputs[2]};
  nn::WideTensor* wide[] = {&wides[0], &wides[1], &wides[2]};
  MaddEngine eng({.cols = 16, .jobs = 3});
  (void)eng.run_conv_batch(layer, in, weights, spec, wide);
  for (int r = 0; r < 3; ++r) {
    expect_same(wides[r], nn::conv_forward(inputs[r], weights, layer));
  }
}

TEST(MaddEngine, ConvOverflowEdgeWidensAcrossChunks) {
  // K = 512 * 3 * 3 = 4608 at every activation 2^Pa - 1 against weights at
  // -2^(Pw - 1): the centre window's sum is far outside int32, and every
  // (Pa, Pw) here crosses at least one K-chunk boundary.
  nn::Layer layer = nn::make_conv("edge", nn::Shape3{512, 3, 3}, 5, 3, 1, 1);
  for (const auto& [pa, pw] : {std::pair{8, 12}, std::pair{12, 12},
                               std::pair{15, 16}}) {
    const SliceSpec spec{.act_precision = pa,
                         .weight_precision = pw,
                         .act_signed = false,
                         .dynamic = true};
    const nn::Tensor input =
        filled(nn::Shape{512, 3, 3}, static_cast<Value>((1 << pa) - 1));
    const nn::Tensor weights = filled(nn::Shape{layer.weight_count()},
                                      static_cast<Value>(-(1 << (pw - 1))));
    nn::WideTensor out;
    const auto st = madd_conv(layer, input, weights, spec, out);
    const nn::WideTensor want = nn::conv_forward(input, weights, layer);
    ASSERT_LT(want.at3(0, 1, 1), std::int64_t{INT32_MIN}) << pa << "x" << pw;
    expect_same(out, want);
    expect_same(st, scalar_stats(layer, input, weights, spec));
  }
}

TEST(MaddEngine, FcOverflowEdgeWidensAcrossChunks) {
  // K = 9216 at the extreme activations against weights at -2^(Pw - 1);
  // Pw 16 takes the hi/lo split.
  const nn::Layer layer = nn::make_fc("edge_fc", nn::Shape3{9216, 1, 1}, 6);
  for (const int pw : {10, 15, 16}) {
    for (const Value a : {Value{32767}, Value{-32768}}) {
      const nn::Tensor input = filled(nn::Shape{9216}, a);
      const nn::Tensor weights = filled(nn::Shape{layer.weight_count()},
                                        static_cast<Value>(-(1 << (pw - 1))));
      const nn::WideTensor want = nn::fc_forward(input, weights, layer);
      ASSERT_GT(std::abs(want.flat(0)), std::int64_t{INT32_MAX});
      expect_same(madd_fc(layer, input, weights, pw), want);
    }
  }
}

TEST(MaddEngine, DpnnSignedExtremesTakeTheSplit) {
  // -32768 * -32768 pairs: one vpmaddwd pair alone would wrap to INT32_MIN.
  // The scalar SIP grid is unsigned-only (the DPNN engine discards the stats
  // of this spec), so only the accumulators are checked, against
  // nn::conv_forward.
  const SliceSpec dpnn{.act_precision = kBasePrecision,
                       .weight_precision = kBasePrecision,
                       .act_signed = true,
                       .dynamic = false};
  nn::Layer conv = nn::make_conv("dpnn", nn::Shape3{512, 3, 3}, 3, 3, 1, 1);
  for (const Value a : {Value{-32768}, Value{32767}}) {
    const nn::Tensor input = filled(nn::Shape{512, 3, 3}, a);
    const nn::Tensor weights = filled(nn::Shape{conv.weight_count()}, -32768);
    nn::WideTensor out;
    (void)madd_conv(conv, input, weights, dpnn, out);
    expect_same(out, nn::conv_forward(input, weights, conv));
  }
  const nn::Tensor mixed = random_tensor(nn::Shape{512, 3, 3}, -32768, 32767, 4);
  const nn::Tensor mixed_w =
      random_tensor(nn::Shape{conv.weight_count()}, -32768, 32767, 6);
  nn::WideTensor out;
  (void)madd_conv(conv, mixed, mixed_w, dpnn, out);
  expect_same(out, nn::conv_forward(mixed, mixed_w, conv));

  const nn::Layer fc = nn::make_fc("dpnn_fc", nn::Shape3{9216, 1, 1}, 5);
  const nn::Tensor input = filled(nn::Shape{9216}, -32768);
  const nn::Tensor weights = filled(nn::Shape{fc.weight_count()}, -32768);
  expect_same(madd_fc(fc, input, weights, kBasePrecision),
              nn::fc_forward(input, weights, fc));
}

TEST(MaddEngine, UnsignedPa16ActivationsAboveInt16) {
  // Raw activations >= 2^15 are unsigned at Pa = 16. conv_forward reads the
  // tensor as int16, so the reference adds back 2^16 per set bit 15:
  // conv(u) = conv(x) + 65536 * conv(bit15(x)).
  nn::Layer layer = nn::make_conv("pa16", nn::Shape3{64, 6, 6}, 6, 3, 1, 1);
  const SliceSpec spec{.act_precision = kBasePrecision,
                       .weight_precision = 11,
                       .act_signed = false,
                       .dynamic = true};
  const nn::Tensor input = random_tensor(nn::Shape{64, 6, 6}, -32768, 32767, 8);
  const nn::Tensor weights =
      random_tensor(nn::Shape{layer.weight_count()}, -1024, 1023, 9);
  nn::Tensor msb(input.shape());
  for (std::int64_t i = 0; i < input.elements(); ++i) {
    msb.set_flat(i, input.flat(i) < 0 ? 1 : 0);
  }
  nn::WideTensor want = nn::conv_forward(input, weights, layer);
  const nn::WideTensor carry = nn::conv_forward(msb, weights, layer);
  for (std::int64_t i = 0; i < want.elements(); ++i) {
    want.set_flat(i, want.flat(i) + 65536 * carry.flat(i));
  }
  nn::WideTensor out;
  const auto st = madd_conv(layer, input, weights, spec, out);
  expect_same(out, want);
  expect_same(st, scalar_stats(layer, input, weights, spec));
}

TEST(MaddEngine, BitsAboveProfileAreOredRawButMaskedInTheSum) {
  // Every raw value carries 0x7F00 above a 6-bit profile with tiny low
  // bits: the detector sees the raw OR (Pa clamps to the profile), while the
  // accumulators use raw & (2^6 - 1).
  nn::Layer layer = nn::make_conv("above", nn::Shape3{32, 7, 7}, 9, 3, 2, 1);
  const SliceSpec spec{.act_precision = 6,
                       .weight_precision = 8,
                       .act_signed = false,
                       .dynamic = true};
  nn::Tensor raw = random_tensor(nn::Shape{32, 7, 7}, 0, 3, 10);
  nn::Tensor masked = raw;
  for (std::int64_t i = 0; i < raw.elements(); ++i) {
    raw.set_flat(i, static_cast<Value>(raw.flat(i) | 0x7F00));
  }
  const nn::Tensor weights =
      random_tensor(nn::Shape{layer.weight_count()}, -128, 127, 11);
  nn::WideTensor out;
  const auto st = madd_conv(layer, raw, weights, spec, out);
  expect_same(out, nn::conv_forward(masked, weights, layer));
  expect_same(st, scalar_stats(layer, raw, weights, spec));

  // The masked input detects a narrower precision: the stats do depend on
  // the raw bits.
  const nn::Tensor* masked_in[] = {&masked};
  const auto narrow = conv_stream_stats(layer, masked_in, spec, StatsGrid{});
  EXPECT_LT(narrow.cycles, st.cycles);
}

TEST(ConvStreamStats, StaticClosedFormMatchesScalarOracle) {
  nn::Layer layer = nn::make_conv("static", nn::Shape3{10, 9, 9}, 21, 3, 2, 0);
  const SliceSpec spec{.act_precision = 9,
                       .weight_precision = 5,
                       .act_signed = false,
                       .dynamic = false};
  const nn::Tensor input = random_tensor(nn::Shape{10, 9, 9}, 0, 511, 12);
  const nn::Tensor weights =
      random_tensor(nn::Shape{layer.weight_count()}, -16, 15, 13);
  const nn::Tensor* in[] = {&input};
  for (const int cols : {1, 5, 16, 64}) {
    for (const int lanes : {1, 7, 16, 32}) {
      SCOPED_TRACE("cols " + std::to_string(cols) + " lanes " +
                   std::to_string(lanes));
      expect_same(
          conv_stream_stats(layer, in, spec,
                            StatsGrid{.rows = 6, .cols = cols, .lanes = lanes}),
          scalar_stats(layer, input, weights, spec,
                       {.rows = 6, .cols = cols, .lanes = lanes}));
    }
  }
}

TEST(ConvStreamStats, BatchGroupsSpanningRequestsMatchScalarOracle) {
  // A 1x1 stride-1 conv's windows are its pixels in raster order, so a
  // batch's concatenated window axis is exactly the window axis of one
  // input stacked along h. Column groups that span a request boundary then
  // have an independent reference: the scalar oracle on the stacked input.
  constexpr int kRequests = 3;
  const nn::Layer layer = nn::make_conv("pw", nn::Shape3{9, 5, 3}, 7, 1, 1, 0);
  const nn::Layer stacked_layer =
      nn::make_conv("pw", nn::Shape3{9, 5 * kRequests, 3}, 7, 1, 1, 0);
  const nn::Tensor weights =
      random_tensor(nn::Shape{layer.weight_count()}, -64, 63, 14);
  std::vector<nn::Tensor> inputs;
  nn::Tensor stacked(nn::Shape{9, 5 * kRequests, 3});
  for (int r = 0; r < kRequests; ++r) {
    // Request r's values stay below 2^(2r+3), so the detected precision of
    // a group depends on which requests it spans.
    inputs.push_back(random_tensor(nn::Shape{9, 5, 3}, 0, (8 << (2 * r)) - 1,
                                   30 + static_cast<std::uint64_t>(r)));
    for (std::int64_t c = 0; c < 9; ++c) {
      for (std::int64_t y = 0; y < 5; ++y) {
        for (std::int64_t x = 0; x < 3; ++x) {
          stacked.at3(c, r * 5 + y, x) = inputs.back().at3(c, y, x);
        }
      }
    }
  }
  const nn::Tensor* in[] = {&inputs[0], &inputs[1], &inputs[2]};
  const SliceSpec spec{.act_precision = 9,
                       .weight_precision = 7,
                       .act_signed = false,
                       .dynamic = true};
  for (const int cols : {4, 7, 16}) {  // 15 windows per request
    SCOPED_TRACE("cols " + std::to_string(cols));
    expect_same(conv_stream_stats(layer, in, spec, StatsGrid{.cols = cols}),
                scalar_stats(stacked_layer, stacked, weights, spec,
                             {.cols = cols}));
  }
}

}  // namespace
}  // namespace loom::sim
