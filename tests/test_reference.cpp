// Golden-model tests: the reference executor is what every datapath and
// simulator functional claim is checked against, so it gets hand-computed
// cases for each geometry feature (padding, stride, groups, pooling).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/reference.hpp"
#include "nn/synthetic.hpp"

namespace loom::nn {
namespace {

Tensor filled(Shape shape, std::initializer_list<int> values) {
  Tensor t(std::move(shape));
  std::int64_t i = 0;
  for (const int v : values) t.set_flat(i++, static_cast<Value>(v));
  return t;
}

TEST(ConvForward, IdentityKernelCopiesInput) {
  // 1x1 kernel with weight 1: output == input.
  const Layer l = make_conv("c", Shape3{1, 3, 3}, 1, 1, 1, 0);
  const Tensor in = filled(Shape{1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor w = filled(Shape{1}, {1});
  const WideTensor out = conv_forward(in, w, l);
  for (std::int64_t i = 0; i < 9; ++i) EXPECT_EQ(out.flat(i), in.flat(i));
}

TEST(ConvForward, HandComputed3x3) {
  const Layer l = make_conv("c", Shape3{1, 3, 3}, 1, 3, 1, 0);
  const Tensor in = filled(Shape{1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor w = filled(Shape{9}, {1, 0, -1, 1, 0, -1, 1, 0, -1});
  const WideTensor out = conv_forward(in, w, l);
  EXPECT_EQ(out.elements(), 1);
  // Column sums: (1+4+7) - (3+6+9) = -6.
  EXPECT_EQ(out.flat(0), -6);
}

TEST(ConvForward, ZeroPaddingContributesNothing) {
  const Layer l = make_conv("c", Shape3{1, 2, 2}, 1, 3, 1, 1);
  const Tensor in = filled(Shape{1, 2, 2}, {1, 1, 1, 1});
  Tensor w(Shape{9}, 1);  // all-ones kernel
  const WideTensor out = conv_forward(in, w, l);
  EXPECT_EQ(out.shape(), (Shape{1, 2, 2}));
  // Each output sees the 4 real ones only.
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(out.flat(i), 4);
}

TEST(ConvForward, StrideSkipsWindows) {
  const Layer l = make_conv("c", Shape3{1, 4, 4}, 1, 2, 2, 0);
  Tensor in(Shape{1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) in.set_flat(i, static_cast<Value>(i));
  Tensor w(Shape{4}, 1);
  const WideTensor out = conv_forward(in, w, l);
  EXPECT_EQ(out.shape(), (Shape{1, 2, 2}));
  EXPECT_EQ(out.flat(0), 0 + 1 + 4 + 5);
  EXPECT_EQ(out.flat(3), 10 + 11 + 14 + 15);
}

TEST(ConvForward, GroupedConvolutionIsolatesChannels) {
  // 2 groups: filter 0 sees channel 0 only; filter 1 sees channel 1 only.
  const Layer l = make_conv("c", Shape3{2, 1, 1}, 2, 1, 1, 0, 2);
  const Tensor in = filled(Shape{2, 1, 1}, {3, 5});
  const Tensor w = filled(Shape{2}, {2, 7});
  const WideTensor out = conv_forward(in, w, l);
  EXPECT_EQ(out.flat(0), 6);   // 3*2
  EXPECT_EQ(out.flat(1), 35);  // 5*7
}

TEST(ConvForward, MultiChannelAccumulates) {
  const Layer l = make_conv("c", Shape3{3, 1, 1}, 1, 1, 1, 0);
  const Tensor in = filled(Shape{3, 1, 1}, {1, 2, 3});
  const Tensor w = filled(Shape{3}, {4, 5, 6});
  const WideTensor out = conv_forward(in, w, l);
  EXPECT_EQ(out.flat(0), 4 + 10 + 18);
}

TEST(FcForward, MatrixVectorProduct) {
  const Layer l = make_fc("f", Shape3{4, 1, 1}, 2);
  const Tensor in = filled(Shape{4, 1, 1}, {1, 2, 3, 4});
  const Tensor w = filled(Shape{8}, {1, 0, 0, 0, 1, 1, 1, 1});
  const WideTensor out = fc_forward(in, w, l);
  EXPECT_EQ(out.flat(0), 1);
  EXPECT_EQ(out.flat(1), 10);
}

TEST(FcForward, NegativeWeights) {
  const Layer l = make_fc("f", Shape3{2, 1, 1}, 1);
  const Tensor in = filled(Shape{2, 1, 1}, {10, 3});
  const Tensor w = filled(Shape{2}, {-1, 2});
  EXPECT_EQ(fc_forward(in, w, l).flat(0), -4);
}

TEST(PoolForward, MaxPooling) {
  const Layer l = make_pool("p", Shape3{1, 2, 2}, PoolKind::kMax, 2, 2);
  const Tensor in = filled(Shape{1, 2, 2}, {1, 9, -3, 4});
  const Tensor out = pool_forward(in, l);
  EXPECT_EQ(out.elements(), 1);
  EXPECT_EQ(out.flat(0), 9);
}

TEST(PoolForward, AveragePoolingCountsRealElements) {
  const Layer l = make_pool("p", Shape3{1, 2, 2}, PoolKind::kAvg, 2, 2);
  const Tensor in = filled(Shape{1, 2, 2}, {2, 4, 6, 8});
  EXPECT_EQ(pool_forward(in, l).flat(0), 5);
}

TEST(PoolForward, NegativeMaxWorks) {
  const Layer l = make_pool("p", Shape3{1, 2, 2}, PoolKind::kMax, 2, 2, 0);
  Tensor in = filled(Shape{1, 2, 2}, {-7, -2, -9, -5});
  // The max of negatives must not be clamped to 0.
  EXPECT_EQ(pool_forward(in, l).flat(0), -2);
}

TEST(Requantize, ShiftReluSaturate) {
  WideTensor acc(Shape{4});
  acc.set_flat(0, 1024);
  acc.set_flat(1, -1024);
  acc.set_flat(2, 70000);
  acc.set_flat(3, 5);
  const Tensor out = requantize(acc, /*shift=*/2, /*out_bits=*/8, /*relu=*/true);
  EXPECT_EQ(out.flat(0), 127);  // 256 saturates to 127
  EXPECT_EQ(out.flat(1), 0);    // ReLU
  EXPECT_EQ(out.flat(2), 127);
  EXPECT_EQ(out.flat(3), 1);    // 5 >> 2
}

TEST(Requantize, NoReluKeepsNegatives) {
  WideTensor acc(Shape{1});
  acc.set_flat(0, -40);
  EXPECT_EQ(requantize(acc, 2, 8, false).flat(0), -10);
}

TEST(ChooseRequantShift, BringsPeakInRange) {
  WideTensor acc(Shape{2});
  acc.set_flat(0, 100000);
  acc.set_flat(1, -50);
  const int shift = choose_requant_shift(acc, 8);
  EXPECT_LE(100000 >> shift, 127);
  EXPECT_GT(100000 >> (shift - 1), 127);
}

// ---- Naive oracles ----------------------------------------------------------
// The per-element loops pool_forward, requantize and choose_requant_shift
// were first written as: every window element bounds-tested, every value
// shifted, rectified and saturated on its own, the peak an abs per element.

Tensor naive_pool(const Tensor& input, const Layer& layer) {
  Tensor out(Shape{layer.out.c, layer.out.h, layer.out.w});
  for (std::int64_t c = 0; c < layer.out.c; ++c) {
    for (std::int64_t oy = 0; oy < layer.out.h; ++oy) {
      for (std::int64_t ox = 0; ox < layer.out.w; ++ox) {
        Wide acc = layer.pool == PoolKind::kMax
                       ? std::numeric_limits<Value>::min()
                       : 0;
        std::int64_t n = 0;
        for (std::int64_t ky = 0; ky < layer.kernel_h; ++ky) {
          const std::int64_t iy = oy * layer.stride + ky - layer.pad;
          if (iy < 0 || iy >= layer.in.h) continue;
          for (std::int64_t kx = 0; kx < layer.kernel_w; ++kx) {
            const std::int64_t ix = ox * layer.stride + kx - layer.pad;
            if (ix < 0 || ix >= layer.in.w) continue;
            const Value v = input.at3(c, iy, ix);
            acc = layer.pool == PoolKind::kMax ? std::max<Wide>(acc, v) : acc + v;
            ++n;
          }
        }
        if (layer.pool == PoolKind::kAvg && n > 0) acc /= n;
        out.at3(c, oy, ox) = static_cast<Value>(acc);
      }
    }
  }
  return out;
}

Tensor naive_requantize(const WideTensor& acc, int shift, int out_bits,
                        bool relu) {
  Tensor out(acc.shape());
  for (std::int64_t i = 0; i < acc.elements(); ++i) {
    Wide v = acc.flat(i) >> shift;
    if (relu && v < 0) v = 0;
    out.set_flat(i, static_cast<Value>(saturate_signed(v, out_bits)));
  }
  return out;
}

int naive_requant_shift(const WideTensor& acc, int out_bits) {
  Wide peak = 0;
  for (std::int64_t i = 0; i < acc.elements(); ++i) {
    peak = std::max<Wide>(peak, std::abs(acc.flat(i)));
  }
  int shift = 0;
  while ((peak >> shift) > (Wide{1} << (out_bits - 1)) - 1) ++shift;
  return shift;
}

Tensor random_values(Shape shape, int lo, int hi, SequentialRng& rng) {
  Tensor t(std::move(shape));
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    t.set_flat(i, static_cast<Value>(lo + static_cast<int>(rng.next_below(span))));
  }
  return t;
}

void expect_pool_matches_naive(const Layer& l, const Tensor& in) {
  const Tensor got = pool_forward(in, l);
  const Tensor want = naive_pool(in, l);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < want.elements(); ++i) {
    ASSERT_EQ(got.flat(i), want.flat(i))
        << (l.pool == PoolKind::kMax ? "max" : "avg") << " in " << l.in.h << "x"
        << l.in.w << " k" << l.kernel_h << " s" << l.stride << " p" << l.pad
        << " out " << l.out.h << "x" << l.out.w << " element " << i;
  }
}

TEST(PoolForward, EdgeGeometriesMatchNaiveLoop) {
  struct Geometry {
    std::int64_t h, w;
    int kernel, stride, pad;
    bool ceil_mode;
  };
  const Geometry cases[] = {
      {55, 55, 3, 2, 0, true},   // AlexNet pool1
      {13, 13, 3, 2, 0, true},   // AlexNet pool5
      {9, 11, 3, 2, 1, false},   // pad > 0
      {10, 10, 2, 3, 0, false},  // stride > kernel: skipped inputs
      {11, 7, 2, 4, 1, true},    // stride > kernel with pad, ceil
      {8, 8, 3, 2, 0, true},     // ceil: last window overhangs the edge
      {7, 6, 3, 3, 2, true},     // windows overhanging both edges
      {3, 3, 2, 2, 1, true},     // ceil + pad: a window with no valid input
      {3, 3, 3, 1, 0, false},    // 1x1 output
      {1, 1, 1, 1, 0, false},    // 1x1 in, 1x1 out
      {5, 5, 5, 1, 0, false},    // kernel covers the input: 1x1 output
  };
  SequentialRng rng(2024, 1);
  for (const Geometry& g : cases) {
    for (const PoolKind kind : {PoolKind::kMax, PoolKind::kAvg}) {
      const Layer l = make_pool("p", Shape3{3, g.h, g.w}, kind, g.kernel,
                                g.stride, g.pad, g.ceil_mode);
      expect_pool_matches_naive(l, random_values(Shape{3, g.h, g.w}, -32768,
                                                 32767, rng));
      // All-negative input: the max identity must never leak into a window
      // that holds real values, and the sums stay negative.
      expect_pool_matches_naive(
          l, random_values(Shape{3, g.h, g.w}, -32768, -1, rng));
    }
  }
}

TEST(PoolForward, RandomGeometriesMatchNaiveLoop) {
  SequentialRng rng(77, 2);
  for (int trial = 0; trial < 400; ++trial) {
    const int kernel = 1 + static_cast<int>(rng.next_below(5));
    const int stride = 1 + static_cast<int>(rng.next_below(6));
    const int pad = static_cast<int>(rng.next_below(3));
    const auto extent = [&] {
      return std::max<std::int64_t>(1, kernel - 2 * pad) +
             static_cast<std::int64_t>(rng.next_below(14));
    };
    const std::int64_t h = extent();
    const std::int64_t w = extent();
    const PoolKind kind = rng.next_below(2) ? PoolKind::kMax : PoolKind::kAvg;
    const bool ceil_mode = rng.next_below(2) != 0;
    const Layer l = make_pool("p", Shape3{2, h, w}, kind, kernel, stride, pad,
                              ceil_mode);
    // Narrow value ranges make ties and equal sums common.
    const int range = rng.next_below(2) ? 32767 : 3;
    const int lo = rng.next_below(3) == 0 ? -range - 1 : -(range + 1) / 2;
    expect_pool_matches_naive(l, random_values(Shape{2, h, w}, lo, range, rng));
  }
}

TEST(Requantize, MatchesNaiveLoopAcrossBitsShiftsAndExtremes) {
  // Values near +-2^62 (accumulators far beyond any real layer), every
  // power-of-two boundary, and a spread of random magnitudes.
  std::vector<Wide> values = {0, 1, -1, Wide{1} << 62, -(Wide{1} << 62),
                              (Wide{1} << 62) - 1, -(Wide{1} << 62) + 1,
                              (Wide{1} << 62) + 12345, -(Wide{1} << 62) - 12345};
  for (int k = 0; k < 62; ++k) {
    for (const Wide d : {Wide{-1}, Wide{0}, Wide{1}}) {
      values.push_back((Wide{1} << k) + d);
      values.push_back(-(Wide{1} << k) + d);
    }
  }
  SequentialRng rng(9, 4);
  for (int i = 0; i < 200; ++i) {
    const int bits = 1 + static_cast<int>(rng.next_below(62));
    const auto mag = static_cast<Wide>(rng.next_bits() >> (64 - bits));
    values.push_back(rng.next_below(2) ? mag : -mag);
  }
  WideTensor acc(Shape{static_cast<std::int64_t>(values.size())});
  for (std::size_t i = 0; i < values.size(); ++i) {
    acc.set_flat(static_cast<std::int64_t>(i), values[i]);
  }
  for (int out_bits = 1; out_bits <= 16; ++out_bits) {
    for (int shift = 0; shift <= 40; ++shift) {
      for (const bool relu : {false, true}) {
        ASSERT_EQ(requantize(acc, shift, out_bits, relu),
                  naive_requantize(acc, shift, out_bits, relu))
            << "out_bits " << out_bits << " shift " << shift << " relu " << relu;
      }
    }
  }
}

TEST(ChooseRequantShift, MatchesNaiveLoopOnSignedPeaks) {
  // The peak is max(max, -min): a lone negative power of two, a positive
  // one, both at once, the +-2^62 extremes, and all-zero accumulators.
  std::vector<std::vector<Wide>> sets = {{0, 0, 0}, {-1}, {1}};
  for (int k = 0; k <= 62; ++k) {
    const Wide p = Wide{1} << k;
    sets.push_back({-p, 3, -2});
    sets.push_back({p, -3, 2});
    sets.push_back({p - 1, -p});
    sets.push_back({-p + 1, p});
    sets.push_back({-p - (k < 62 ? 1 : 0)});
  }
  for (const auto& set : sets) {
    WideTensor acc(Shape{static_cast<std::int64_t>(set.size())});
    for (std::size_t i = 0; i < set.size(); ++i) {
      acc.set_flat(static_cast<std::int64_t>(i), set[i]);
    }
    for (int out_bits = 1; out_bits <= 16; ++out_bits) {
      ASSERT_EQ(choose_requant_shift(acc, out_bits),
                naive_requant_shift(acc, out_bits))
          << "out_bits " << out_bits << " first " << set.front();
    }
  }
}

TEST(ConvForward, ShapeMismatchThrows) {
  const Layer l = make_conv("c", Shape3{1, 3, 3}, 1, 3, 1, 0);
  const Tensor in(Shape{1, 4, 4});
  const Tensor w(Shape{9});
  EXPECT_THROW((void)conv_forward(in, w, l), ContractViolation);
}

// Cross-check: reference conv on random data distributes over filters.
TEST(ConvForward, LinearInWeights) {
  const Layer l = make_conv("c", Shape3{2, 5, 5}, 2, 3, 1, 1);
  SyntheticSpec aspec{.precision = 6, .alpha = 1.0, .is_signed = false};
  SyntheticSpec wspec{.precision = 5, .alpha = 1.0, .is_signed = true};
  const Tensor in = make_activation_tensor(l.in, aspec, 1, 1);
  const Tensor w1 = make_weight_tensor(l.weight_count(), wspec, 2, 2);
  const Tensor w2 = make_weight_tensor(l.weight_count(), wspec, 3, 3);
  Tensor wsum(Shape{l.weight_count()});
  for (std::int64_t i = 0; i < l.weight_count(); ++i) {
    wsum.set_flat(i, static_cast<Value>(w1.flat(i) + w2.flat(i)));
  }
  const WideTensor o1 = conv_forward(in, w1, l);
  const WideTensor o2 = conv_forward(in, w2, l);
  const WideTensor os = conv_forward(in, wsum, l);
  for (std::int64_t i = 0; i < os.elements(); ++i) {
    EXPECT_EQ(os.flat(i), o1.flat(i) + o2.flat(i));
  }
}

}  // namespace
}  // namespace loom::nn
