// Distribution calibration: the mechanism that makes synthetic workloads
// reproduce the paper's published effective precisions (Table 3 and the
// dynamic activation trims). Parameterized over a (precision, target) grid.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "quant/calibration.hpp"
#include "quant/group_precision.hpp"

namespace loom::quant {
namespace {

TEST(Calibration, MeasureIsMonotoneInAlpha) {
  nn::SyntheticSpec spec{.precision = 10, .alpha = 1.0, .is_signed = true};
  CalibrationOptions opts;
  double prev = 1e9;
  for (const double alpha : {1.0, 4.0, 16.0, 64.0, 256.0}) {
    spec.alpha = alpha;
    const double m = measure_mean_group_precision(spec, opts);
    EXPECT_LE(m, prev + 0.05) << alpha;
    prev = m;
  }
}

// No padding bytes: ctest names these cases by the bytes of their value,
// and padding would carry stack garbage that changes from run to run.
struct GridCase {
  int precision;
  std::int32_t is_signed;  // a flag, 32 bits wide so that target is aligned
  double target;
};

class CalibrationGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(CalibrationGrid, HitsTargetWithinTolerance) {
  const GridCase c = GetParam();
  nn::SyntheticSpec spec;
  spec.precision = c.precision;
  spec.is_signed = c.is_signed != 0;
  CalibrationOptions opts;
  opts.group_size = 16;
  const nn::SyntheticSpec calibrated =
      calibrate_to_group_precision(spec, c.target, opts);
  const double measured = measure_mean_group_precision(calibrated, opts);
  EXPECT_NEAR(measured, c.target, 0.15)
      << "precision=" << c.precision << " target=" << c.target;
}

INSTANTIATE_TEST_SUITE_P(
    WeightLikeTargets, CalibrationGrid,
    ::testing::Values(GridCase{11, true, 8.36},   // AlexNet Table 3
                      GridCase{11, true, 6.19},   // GoogLeNet Table 3
                      GridCase{12, true, 9.94},   // VGGS Table 3
                      GridCase{12, true, 7.20},   // VGG19 Table 3
                      GridCase{10, true, 8.0},
                      GridCase{11, true, 4.83}));  // GoogLeNet minimum

INSTANTIATE_TEST_SUITE_P(
    ActivationLikeTargets, CalibrationGrid,
    ::testing::Values(GridCase{8, false, 6.5}, GridCase{9, false, 7.0},
                      GridCase{13, false, 10.0}, GridCase{5, false, 3.5}));

TEST(Calibration, UnreachableHighTargetFallsBackToAlphaOne) {
  nn::SyntheticSpec spec{.precision = 8, .alpha = 1.0, .is_signed = true};
  const nn::SyntheticSpec calibrated =
      calibrate_to_group_precision(spec, 15.0, {});
  EXPECT_DOUBLE_EQ(calibrated.alpha, 1.0);
}

TEST(Calibration, CacheReturnsSameSpec) {
  const auto& a = calibrated_spec_cached(11, true, 0.0, 16, 8.36);
  const auto& b = calibrated_spec_cached(11, true, 0.0, 16, 8.36);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.precision, 11);
  EXPECT_TRUE(a.is_signed);
}

TEST(Calibration, ZeroFractionCompatible) {
  nn::SyntheticSpec spec{.precision = 9, .alpha = 1.0, .is_signed = false,
                         .zero_fraction = 0.45};
  CalibrationOptions opts;
  opts.group_size = 256;
  const auto calibrated = calibrate_to_group_precision(spec, 7.0, opts);
  EXPECT_NEAR(measure_mean_group_precision(calibrated, opts), 7.0, 0.15);
}

// ---- Exactness of the max-draw bisection ----------------------------------
// calibrate_to_group_precision reduces its sample to per-group maximum draws
// once instead of rescanning it per bisection step. This test-local copy of
// the scan bisection (one measure_mean_group_precision per step) is the
// oracle: the two must return the same alpha bit for bit.

nn::SyntheticSpec scan_bisection(nn::SyntheticSpec spec, double target,
                                 const CalibrationOptions& opts) {
  spec.alpha = 1.0;
  if (target >= measure_mean_group_precision(spec, opts)) return spec;
  double lo = 0.0;
  double hi = 16.0;
  for (int it = 0; it < opts.max_iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    spec.alpha = std::exp(mid);
    const double measured = measure_mean_group_precision(spec, opts);
    if (std::abs(measured - target) <= opts.tolerance) return spec;
    if (measured > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  spec.alpha = std::exp(0.5 * (lo + hi));
  return spec;
}

void expect_same_alpha(const nn::SyntheticSpec& spec, double target,
                       const CalibrationOptions& opts) {
  const double fast = calibrate_to_group_precision(spec, target, opts).alpha;
  const double scan = scan_bisection(spec, target, opts).alpha;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast), std::bit_cast<std::uint64_t>(scan))
      << "p=" << spec.precision << " signed=" << spec.is_signed
      << " zero=" << spec.zero_fraction << " group=" << opts.group_size
      << " target=" << target << " tol=" << opts.tolerance << " fast=" << fast
      << " scan=" << scan;
}

TEST(CalibrationExactness, MaxDrawBisectionMatchesScanOnGrid) {
  // Targets span the early return (above the alpha = 1 mean), converged
  // exits and, with a zero tolerance, the max-iteration exit.
  for (const int precision : {2, 5, 9, 16}) {
    for (const bool is_signed : {false, true}) {
      for (const double zero : {0.0, 0.45}) {
        for (const int group : {16, 256}) {
          CalibrationOptions opts;
          opts.group_size = group;
          opts.sample_groups = group == 16 ? 2048 : 256;
          nn::SyntheticSpec spec{.precision = precision,
                                 .is_signed = is_signed,
                                 .zero_fraction = zero};
          for (const double frac : {1.2, 0.85, 0.5}) {
            const double target = std::max(1.0, frac * precision);
            expect_same_alpha(spec, target, opts);
          }
          CalibrationOptions exhaust = opts;
          exhaust.tolerance = 0.0;
          exhaust.max_iterations = 7;
          expect_same_alpha(spec, std::max(1.0, 0.7 * precision), exhaust);
        }
      }
    }
  }
}

TEST(CalibrationExactness, ProductionKeysMatchScan) {
  // Default sample size: AlexNet's input spec (Pa 9 minus the 2.1-bit
  // trim, 256-value detection groups, ReLU sparsity) and its conv1
  // Table-3 weight key.
  CalibrationOptions input_opts;
  input_opts.group_size = 256;
  expect_same_alpha({.precision = 9, .zero_fraction = 0.45}, 9 - 2.1,
                    input_opts);
  expect_same_alpha({.precision = 11, .is_signed = true}, 8.36, {});
}

TEST(CalibrationExactness, GroupsWithoutLiveValues) {
  // Zero fraction 0.9 over groups of 2: most groups hold only gated zeros.
  CalibrationOptions opts;
  opts.group_size = 2;
  opts.sample_groups = 4096;
  for (const bool is_signed : {false, true}) {
    const nn::SyntheticSpec spec{.precision = 8, .is_signed = is_signed,
                                 .zero_fraction = 0.9};
    expect_same_alpha(spec, 1.3, opts);
    expect_same_alpha(spec, 1.05, opts);
  }
}

TEST(CalibrationExactness, SignedSparseSource) {
  CalibrationOptions opts;
  opts.sample_groups = 4096;
  const nn::SyntheticSpec spec{.precision = 12, .is_signed = true,
                               .zero_fraction = 0.3};
  for (const double target : {9.5, 7.0, 4.0}) expect_same_alpha(spec, target, opts);
}

TEST(CalibrationExactness, MaxDrawMeanEqualsScanMean) {
  // The reduction itself, at fixed alphas, against both scans.
  for (const bool is_signed : {false, true}) {
    nn::SyntheticSpec spec{.precision = 10, .is_signed = is_signed,
                           .zero_fraction = 0.2};
    const nn::SyntheticSource base(7, 3, spec);
    const GroupMaxDraws draws = group_max_draws(base, 16 * 1000 + 5, 16);
    for (const double alpha : {1.0, 3.0, 40.0, 5000.0}) {
      spec.alpha = alpha;
      const nn::SyntheticSource src(7, 3, spec);
      const GroupPrecisionStats scan =
          is_signed ? weight_group_stats(src, 16 * 1000 + 5, 16)
                    : activation_group_stats(src, 16 * 1000 + 5, 16);
      EXPECT_EQ(mean_group_precision(draws, src), scan.mean)
          << "signed=" << is_signed << " alpha=" << alpha;
    }
  }
}

}  // namespace
}  // namespace loom::quant
