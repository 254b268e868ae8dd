#include "quant/group_precision.hpp"

#include <algorithm>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace loom::quant {

namespace {

template <bool kSigned>
GroupPrecisionStats stream_stats(const nn::SyntheticSource& source,
                                 std::int64_t count, int group_size,
                                 int sample_stride) {
  LOOM_EXPECTS(count > 0 && group_size > 0 && sample_stride >= 1);
  GroupPrecisionStats stats;
  double sum = 0.0;
  const std::int64_t total_groups = ceil_div(count, group_size);
  for (std::int64_t g = 0; g < total_groups; g += sample_stride) {
    const std::int64_t begin = g * group_size;
    const std::int64_t end = std::min<std::int64_t>(begin + group_size, count);
    int p = 1;
    if constexpr (kSigned) {
      for (std::int64_t i = begin; i < end; ++i) {
        p = std::max(p, needed_bits_signed(source.at(static_cast<std::uint64_t>(i))));
      }
    } else {
      std::uint32_t ored = 0;
      for (std::int64_t i = begin; i < end; ++i) {
        ored |= static_cast<std::uint16_t>(source.at(static_cast<std::uint64_t>(i)));
      }
      p = needed_bits_unsigned(ored);
    }
    stats.histogram.add(p);
    sum += p;
    ++stats.groups;
  }
  stats.mean = stats.groups ? sum / static_cast<double>(stats.groups) : 0.0;
  return stats;
}

}  // namespace

GroupMaxDraws group_max_draws(const nn::SyntheticSource& source,
                              std::int64_t count, int group_size) {
  LOOM_EXPECTS(count > 0 && group_size > 0);
  const bool is_signed = source.spec().is_signed;
  const auto groups = static_cast<std::size_t>(ceil_div(count, group_size));
  GroupMaxDraws out;
  out.positive.reserve(groups);
  if (is_signed) out.negative.reserve(groups);
  for (std::int64_t begin = 0; begin < count; begin += group_size) {
    const std::int64_t end = std::min<std::int64_t>(begin + group_size, count);
    double pos = -1.0;
    double neg = -1.0;
    for (std::int64_t i = begin; i < end; ++i) {
      const nn::SyntheticSource::Draw d =
          source.draw(static_cast<std::uint64_t>(i));
      double& m = d.negative ? neg : pos;
      m = std::max(m, d.u);
    }
    out.positive.push_back(pos);
    if (is_signed) out.negative.push_back(neg);
  }
  return out;
}

double mean_group_precision(const GroupMaxDraws& draws,
                            const nn::SyntheticSource& source, int max_bits) {
  const bool is_signed = source.spec().is_signed;
  LOOM_EXPECTS(!is_signed || draws.negative.size() == draws.positive.size());
  const std::size_t groups = draws.positive.size();
  // Integer sum: exact, so the mean equals the scans' double accumulation.
  std::int64_t sum = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::int32_t pos = source.magnitude_for_draw(draws.positive[g]);
    int p = 0;
    if (is_signed) {
      const std::int32_t neg = source.magnitude_for_draw(draws.negative[g]);
      p = std::max({1, needed_bits_signed(pos), needed_bits_signed(-neg)});
    } else {
      // An unsigned magnitude of 2^16 - 1 wraps negative in Value; the
      // uint16 view is the value the OR scan sees.
      p = needed_bits_unsigned(static_cast<std::uint16_t>(pos));
    }
    sum += std::min(p, max_bits);
  }
  return groups ? static_cast<double>(sum) / static_cast<double>(groups) : 0.0;
}

GroupPrecisionStats weight_group_stats(const nn::SyntheticSource& source,
                                       std::int64_t count, int group_size,
                                       int sample_stride) {
  return stream_stats<true>(source, count, group_size, sample_stride);
}

GroupPrecisionStats activation_group_stats(const nn::SyntheticSource& source,
                                           std::int64_t count, int group_size,
                                           int sample_stride) {
  return stream_stats<false>(source, count, group_size, sample_stride);
}

}  // namespace loom::quant
