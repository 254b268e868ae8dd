// Streaming per-group weight precision statistics (Lascorz et al. [10],
// paper §4.6 and Table 3). Weight tensors at VGG scale are never
// materialized; statistics are computed by streaming a SyntheticSource.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/stats.hpp"
#include "nn/synthetic.hpp"

namespace loom::quant {

struct GroupPrecisionStats {
  double mean = 0.0;            ///< average effective precision over groups
  std::uint64_t groups = 0;     ///< number of groups measured
  IntHistogram histogram{17};   ///< distribution over precisions 0..16
};

/// Effective precision statistics over consecutive groups of `group_size`
/// values streamed from `source` (weights: signed two's complement).
/// `count` values are examined; `sample_stride` > 1 measures every k-th
/// group only (deterministic subsampling for very large tensors).
[[nodiscard]] GroupPrecisionStats weight_group_stats(const nn::SyntheticSource& source,
                                                     std::int64_t count,
                                                     int group_size,
                                                     int sample_stride = 1);

/// Same statistic over unsigned activation values.
[[nodiscard]] GroupPrecisionStats activation_group_stats(const nn::SyntheticSource& source,
                                                         std::int64_t count,
                                                         int group_size,
                                                         int sample_stride = 1);

/// Alpha-independent reduction of sampled groups to their maximum uniform
/// draws (SyntheticSource::draw). The synthetic magnitude is monotone in the
/// draw, so under any alpha a group's needed precision follows from these
/// maxima alone (see calibration.hpp for the exactness argument).
struct GroupMaxDraws {
  /// Per group: maximum draw behind its non-negative values (all values of
  /// an unsigned source); -1 when the group has no live value.
  std::vector<double> positive;
  /// Signed sources only, one entry per group: maximum draw behind its
  /// negative values; -1 when there is none. Empty for unsigned sources.
  std::vector<double> negative;
};

/// One raw-RNG pass over consecutive groups of `group_size` values of
/// `source` (`count` values, the same enumeration as the *_group_stats
/// scans at stride 1), reduced to each group's maximum draws.
[[nodiscard]] GroupMaxDraws group_max_draws(const nn::SyntheticSource& source,
                                            std::int64_t count, int group_size);

/// Mean needed precision over the groups of `draws` under `source`'s spec:
/// unsigned groups take the needed bits of their maximum magnitude, signed
/// groups the larger two's-complement width of their largest positive and
/// largest negative value (at least 1). Each group is clipped to `max_bits`.
/// `source` must share seed, stream, zero fraction and signedness with the
/// source the draws came from; only alpha may differ.
[[nodiscard]] double mean_group_precision(const GroupMaxDraws& draws,
                                          const nn::SyntheticSource& source,
                                          int max_bits = kBasePrecision);

}  // namespace loom::quant
