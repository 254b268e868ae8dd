// Distribution calibration: choose the concentration exponent `alpha` of a
// SyntheticSpec so the mean per-group effective precision of the generated
// values hits a target. This is how the synthetic workloads are made to
// reproduce the published precision behaviour (Table 3's effective weight
// precisions and the dynamic activation trims implied by Table 2).
//
// Mean group precision is monotonically non-increasing in alpha (larger
// alpha concentrates magnitudes toward zero), so a bisection on log(alpha)
// against a deterministic Monte-Carlo estimate converges quickly.
//
// The bisection never rescans its sample. Each element is a uniform draw u
// (plus a sign and a zero gate) that does not depend on alpha, and its
// magnitude floor((max+1) * u^alpha) is monotone in u. So one raw-RNG pass
// reduces every sampled group to its maximum draws, and each bisection step
// costs one magnitude per group. The reduced measurement is exactly
// measure_mean_group_precision's:
//  * Unsigned groups: the OR of a group shares its most significant bit
//    with the group maximum, which is the magnitude of the maximum draw.
//  * Signed groups: two's-complement width is monotone in magnitude within
//    each sign, so the group keeps one maximum draw per sign and its
//    precision is max(1, width(+mag(max+)), width(-mag(max-))).
//  * Zero-gated draws (-1) map to magnitude 0 and contribute nothing.
// The group precisions are integers, so their sum, and hence the mean, is
// bit-identical to the scan's; the bisection takes the same path and
// returns the same alpha. measure_mean_group_precision stays the scan
// oracle that the tests compare against.
#pragma once

#include <cstdint>

#include "nn/synthetic.hpp"

namespace loom::quant {

struct CalibrationOptions {
  int group_size = 16;          ///< group over which effective precision is taken
  std::int64_t sample_groups = 16384;  ///< Monte-Carlo sample size
  double tolerance = 0.04;      ///< acceptable |measured - target| in bits
  int max_iterations = 48;
  std::uint64_t seed = 0xCA11B8A7E5EEDull;
};

/// Measured mean group precision for a given spec (MC estimate).
[[nodiscard]] double measure_mean_group_precision(const nn::SyntheticSpec& spec,
                                                  const CalibrationOptions& opts);

/// Find alpha such that the mean per-group precision of values with profile
/// precision `spec.precision` is ~`target_mean_precision`. Returns the
/// calibrated spec (alpha filled in). Targets above the achievable range
/// clamp to alpha = 1; targets at/below 1 bit clamp to the maximum alpha.
[[nodiscard]] nn::SyntheticSpec calibrate_to_group_precision(
    nn::SyntheticSpec spec, double target_mean_precision,
    const CalibrationOptions& opts = {});

/// Process-wide memoization of calibrations (keyed by spec fields, group
/// size and target); the zoo networks share many (precision, target) pairs.
[[nodiscard]] const nn::SyntheticSpec& calibrated_spec_cached(
    int precision, bool is_signed, double zero_fraction, int group_size,
    double target_mean_precision);

}  // namespace loom::quant
