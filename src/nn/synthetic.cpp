#include "nn/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace loom::nn {

SyntheticSource::SyntheticSource(std::uint64_t seed, std::uint64_t stream,
                                 SyntheticSpec spec)
    : rng_(seed, stream), spec_(spec) {
  LOOM_EXPECTS(spec.precision >= 1 && spec.precision <= kBasePrecision);
  LOOM_EXPECTS(spec.alpha >= 1.0);
  LOOM_EXPECTS(spec.zero_fraction >= 0.0 && spec.zero_fraction < 1.0);
  // Signed precision p covers magnitudes up to 2^(p-1)-1 (we avoid the
  // asymmetric minimum so negation in the datapath cannot overflow).
  max_magnitude_ = spec.is_signed ? (1 << (spec.precision - 1)) - 1
                                  : (1 << spec.precision) - 1;
  if (spec_.is_signed && max_magnitude_ == 0) max_magnitude_ = 1;  // p==1 -> {-1,0,1}? keep {0,1}
  // gate / 1024 < zero_fraction  <=>  gate < ceil(1024 * zero_fraction) for
  // an integer gate; the power-of-two scaling is exact.
  gate_threshold_ =
      static_cast<std::uint64_t>(std::ceil(spec_.zero_fraction * 1024.0));
  sign_bit_ = spec_.is_signed ? 1 : 0;
}

Value SyntheticSource::at(std::uint64_t index) const noexcept {
  const Draw d = draw(index);
  const std::int32_t mag = magnitude_for_draw(d.u);
  return static_cast<Value>(d.negative ? -mag : mag);
}

Value SyntheticSource::magnitude_for_draw(double u) const noexcept {
  if (u < 0.0) return 0;
  const double scaled =
      static_cast<double>(max_magnitude_ + 1) * std::pow(u, spec_.alpha);
  auto mag = static_cast<std::int32_t>(scaled);
  if (mag > max_magnitude_) mag = max_magnitude_;
  return static_cast<Value>(mag);
}

Tensor make_activation_tensor(const Shape3& shape, const SyntheticSpec& spec,
                              std::uint64_t seed, std::uint64_t stream) {
  const SyntheticSource src(seed, stream, spec);
  Tensor t(Shape{shape.c, shape.h, shape.w});
  const std::int64_t n = t.elements();
  for (std::int64_t i = 0; i < n; ++i) {
    t.set_flat(i, src.at(static_cast<std::uint64_t>(i)));
  }
  return t;
}

Tensor make_weight_tensor(std::int64_t count, const SyntheticSpec& spec,
                          std::uint64_t seed, std::uint64_t stream) {
  LOOM_EXPECTS(count > 0);
  const SyntheticSource src(seed, stream, spec);
  Tensor t(Shape{count});
  constexpr std::int64_t kStripe = std::int64_t{1} << 16;
  const std::span<Value> out = t.data();
  const auto fill = [&](std::size_t s) {
    const std::int64_t begin = static_cast<std::int64_t>(s) * kStripe;
    const std::int64_t end = std::min(count, begin + kStripe);
    for (std::int64_t i = begin; i < end; ++i) {
      out[static_cast<std::size_t>(i)] = src.at(static_cast<std::uint64_t>(i));
    }
  };
  const auto stripes = static_cast<std::size_t>(ceil_div(count, kStripe));
  if (stripes == 1) {
    fill(0);
  } else {
    shared_pool().parallel_for(stripes, fill);
  }
  return t;
}

std::uint64_t activation_stream(std::uint64_t layer_index) noexcept {
  return 0x4143540000000000ull ^ layer_index;  // "ACT"
}

std::uint64_t weight_stream(std::uint64_t layer_index) noexcept {
  return 0x5747540000000000ull ^ layer_index;  // "WGT"
}

}  // namespace loom::nn
