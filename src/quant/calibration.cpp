#include "quant/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <tuple>

#include "common/error.hpp"
#include "quant/group_precision.hpp"

namespace loom::quant {

namespace {

/// The Monte-Carlo sample of one calibration problem.
nn::SyntheticSource calibration_source(const nn::SyntheticSpec& spec,
                                       const CalibrationOptions& opts) {
  // Decorrelate the Monte-Carlo sample across calibration problems: a
  // single shared sample would push the same tail fluctuation into every
  // calibrated spec (observed as a systematic ~0.15-bit bias).
  const std::uint64_t stream =
      1 + static_cast<std::uint64_t>(spec.precision) * 131 +
      static_cast<std::uint64_t>(opts.group_size) * 17;
  return nn::SyntheticSource(opts.seed, stream, spec);
}

std::int64_t sample_count(const CalibrationOptions& opts) {
  return opts.sample_groups * static_cast<std::int64_t>(opts.group_size);
}

}  // namespace

double measure_mean_group_precision(const nn::SyntheticSpec& spec,
                                    const CalibrationOptions& opts) {
  const nn::SyntheticSource source = calibration_source(spec, opts);
  const std::int64_t count = sample_count(opts);
  const GroupPrecisionStats stats =
      spec.is_signed ? weight_group_stats(source, count, opts.group_size)
                     : activation_group_stats(source, count, opts.group_size);
  return stats.mean;
}

nn::SyntheticSpec calibrate_to_group_precision(nn::SyntheticSpec spec,
                                               double target_mean_precision,
                                               const CalibrationOptions& opts) {
  LOOM_EXPECTS(target_mean_precision >= 1.0);
  constexpr double kMinLogAlpha = 0.0;   // alpha = 1
  constexpr double kMaxLogAlpha = 16.0;  // alpha ~ 8.9e6

  spec.alpha = 1.0;
  // The draws do not depend on alpha: reduce the sample to per-group
  // maximum draws once, and every measurement below equals
  // measure_mean_group_precision at one pow per group (see file comment).
  const GroupMaxDraws draws = group_max_draws(
      calibration_source(spec, opts), sample_count(opts), opts.group_size);
  const auto measure = [&] {
    return mean_group_precision(draws, calibration_source(spec, opts));
  };

  const double at_min = measure();
  if (target_mean_precision >= at_min) return spec;  // already below target

  double lo = kMinLogAlpha;  // mean precision high here
  double hi = kMaxLogAlpha;  // mean precision low here
  for (int it = 0; it < opts.max_iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    spec.alpha = std::exp(mid);
    const double measured = measure();
    if (std::abs(measured - target_mean_precision) <= opts.tolerance) return spec;
    if (measured > target_mean_precision) {
      lo = mid;  // need more concentration
    } else {
      hi = mid;
    }
  }
  spec.alpha = std::exp(0.5 * (lo + hi));
  return spec;
}

const nn::SyntheticSpec& calibrated_spec_cached(int precision, bool is_signed,
                                                double zero_fraction,
                                                int group_size,
                                                double target_mean_precision) {
  using KeyType = std::tuple<int, bool, int, int, int>;
  // Quantize the double-valued key fields to avoid float-equality issues.
  const KeyType key{precision, is_signed,
                    static_cast<int>(std::lround(zero_fraction * 1000)),
                    group_size,
                    static_cast<int>(std::lround(target_mean_precision * 100))};
  // Guarded: workloads calibrate concurrently under the runner's `jobs`
  // fan-out. The map stores one deferred shared_future per key, so the lock
  // only covers lookup/insert: the first caller of get() runs the
  // Monte-Carlo bisection, same-key callers wait for that one result
  // (no duplicated work), and distinct keys calibrate concurrently.
  // shared_future::get() returns a reference into the shared state; a
  // successful entry is never evicted, so the cache keeps that state (and
  // the returned reference) alive for the process lifetime.
  struct Entry {
    std::uint64_t gen = 0;
    std::shared_future<nn::SyntheticSpec> fut;
  };
  static std::mutex cache_mutex;
  static std::map<KeyType, Entry> cache;
  static std::uint64_t next_gen = 0;

  std::shared_future<nn::SyntheticSpec> fut;
  std::uint64_t gen = 0;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) {
      fut = it->second.fut;
      gen = it->second.gen;
    } else {
      fut = std::async(std::launch::deferred,
                       [precision, is_signed, zero_fraction, group_size,
                        target_mean_precision] {
                         nn::SyntheticSpec spec;
                         spec.precision = precision;
                         spec.is_signed = is_signed;
                         spec.zero_fraction = zero_fraction;
                         CalibrationOptions opts;
                         opts.group_size = group_size;
                         return calibrate_to_group_precision(
                             spec, target_mean_precision, opts);
                       })
                .share();
      gen = ++next_gen;
      cache.emplace(key, Entry{gen, fut});
    }
  }
  try {
    return fut.get();
  } catch (...) {
    // Don't poison the cache with a failed (possibly transient) attempt:
    // evict so the next caller retries. The generation check makes sure we
    // only evict the exact attempt that threw — never a successor's fresh
    // (possibly already-succeeded) entry, whose shared state callers may
    // be holding references into.
    const std::lock_guard<std::mutex> lock(cache_mutex);
    const auto it = cache.find(key);
    if (it != cache.end() && it->second.gen == gen) cache.erase(it);
    throw;
  }
}

}  // namespace loom::quant
