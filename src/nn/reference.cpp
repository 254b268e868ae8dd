#include "nn/reference.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace loom::nn {

WideTensor conv_forward(const Tensor& input, const Tensor& weights,
                        const Layer& layer) {
  LOOM_EXPECTS(layer.kind == LayerKind::kConv);
  LOOM_EXPECTS(input.shape() == (Shape{layer.in.c, layer.in.h, layer.in.w}));
  LOOM_EXPECTS(weights.elements() == layer.weight_count());

  const std::int64_t cig = layer.group_in_channels();
  const std::int64_t cog = layer.group_out_channels();
  const std::int64_t kh = layer.kernel_h;
  const std::int64_t kw = layer.kernel_w;

  WideTensor out(Shape{layer.out.c, layer.out.h, layer.out.w});
  for (std::int64_t co = 0; co < layer.out.c; ++co) {
    const std::int64_t g = co / cog;
    const std::int64_t ci0 = g * cig;
    const std::int64_t wbase = co * cig * kh * kw;
    for (std::int64_t oy = 0; oy < layer.out.h; ++oy) {
      for (std::int64_t ox = 0; ox < layer.out.w; ++ox) {
        Wide acc = 0;
        for (std::int64_t ci = 0; ci < cig; ++ci) {
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int64_t iy = oy * layer.stride + ky - layer.pad;
            if (iy < 0 || iy >= layer.in.h) continue;
            for (std::int64_t kx = 0; kx < kw; ++kx) {
              const std::int64_t ix = ox * layer.stride + kx - layer.pad;
              if (ix < 0 || ix >= layer.in.w) continue;
              const Wide a = input.at3(ci0 + ci, iy, ix);
              const Wide w = weights.flat(wbase + (ci * kh + ky) * kw + kx);
              acc += a * w;
            }
          }
        }
        out.at3(co, oy, ox) = acc;
      }
    }
  }
  return out;
}

WideTensor fc_forward(const Tensor& input, const Tensor& weights,
                      const Layer& layer) {
  LOOM_EXPECTS(layer.kind == LayerKind::kFullyConnected);
  LOOM_EXPECTS(input.elements() == layer.in.elements());
  LOOM_EXPECTS(weights.elements() == layer.weight_count());

  const std::int64_t ci = layer.in.elements();
  WideTensor out(Shape{layer.out.c, 1, 1});
  for (std::int64_t co = 0; co < layer.out.c; ++co) {
    Wide acc = 0;
    const std::int64_t wbase = co * ci;
    for (std::int64_t i = 0; i < ci; ++i) {
      acc += static_cast<Wide>(input.flat(i)) * weights.flat(wbase + i);
    }
    out.set_flat(co, acc);
  }
  return out;
}

Tensor pool_forward(const Tensor& input, const Layer& layer) {
  LOOM_EXPECTS(layer.kind == LayerKind::kPool);
  LOOM_EXPECTS(input.shape() == (Shape{layer.in.c, layer.in.h, layer.in.w}));

  // Separable in place: per output row, the window's valid input rows fold
  // column-wise into one row (max, or an exact int64 sum), then each output
  // reads its window's valid columns of that row. Window ranges clip to the
  // input once per row / column, never per element. A window with no valid
  // element yields the max identity (INT16_MIN) or an average of 0.
  const std::int64_t in_h = layer.in.h;
  const std::int64_t in_w = layer.in.w;
  const std::int64_t out_h = layer.out.h;
  const std::int64_t out_w = layer.out.w;
  const bool is_max = layer.pool == PoolKind::kMax;
  std::vector<std::int64_t> x_lo(static_cast<std::size_t>(out_w));
  std::vector<std::int64_t> x_hi(static_cast<std::size_t>(out_w));
  for (std::int64_t ox = 0; ox < out_w; ++ox) {
    const std::int64_t x0 = ox * layer.stride - layer.pad;
    x_lo[static_cast<std::size_t>(ox)] = std::max<std::int64_t>(x0, 0);
    x_hi[static_cast<std::size_t>(ox)] =
        std::max(x_lo[static_cast<std::size_t>(ox)],
                 std::min<std::int64_t>(x0 + layer.kernel_w, in_w));
  }
  std::vector<Value> row_max(static_cast<std::size_t>(is_max ? in_w : 0));
  std::vector<Wide> row_sum(static_cast<std::size_t>(is_max ? 0 : in_w));

  Tensor out(Shape{layer.out.c, out_h, out_w});
  const Value* src = input.data().data();
  Value* dst = out.data().data();
  for (std::int64_t c = 0; c < layer.out.c; ++c) {
    const Value* plane = src + c * in_h * in_w;
    for (std::int64_t oy = 0; oy < out_h; ++oy, dst += out_w) {
      const std::int64_t y0 = oy * layer.stride - layer.pad;
      const std::int64_t y_lo = std::max<std::int64_t>(y0, 0);
      const std::int64_t y_hi =
          std::max(y_lo, std::min<std::int64_t>(y0 + layer.kernel_h, in_h));
      if (is_max) {
        Value* rm = row_max.data();
        std::fill(rm, rm + in_w, std::numeric_limits<Value>::min());
        for (std::int64_t y = y_lo; y < y_hi; ++y) {
          const Value* r = plane + y * in_w;
          for (std::int64_t x = 0; x < in_w; ++x) rm[x] = std::max(rm[x], r[x]);
        }
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          Value m = std::numeric_limits<Value>::min();
          for (std::int64_t x = x_lo[static_cast<std::size_t>(ox)];
               x < x_hi[static_cast<std::size_t>(ox)]; ++x) {
            m = std::max(m, rm[x]);
          }
          dst[ox] = m;
        }
      } else {
        Wide* rs = row_sum.data();
        std::fill(rs, rs + in_w, Wide{0});
        for (std::int64_t y = y_lo; y < y_hi; ++y) {
          const Value* r = plane + y * in_w;
          for (std::int64_t x = 0; x < in_w; ++x) rs[x] += r[x];
        }
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const std::int64_t lo = x_lo[static_cast<std::size_t>(ox)];
          const std::int64_t hi = x_hi[static_cast<std::size_t>(ox)];
          Wide acc = 0;
          for (std::int64_t x = lo; x < hi; ++x) acc += rs[x];
          const std::int64_t n = (y_hi - y_lo) * (hi - lo);
          dst[ox] = static_cast<Value>(n > 0 ? acc / n : 0);
        }
      }
    }
  }
  return out;
}

Tensor requantize(const WideTensor& acc, int shift, int out_bits, bool relu) {
  LOOM_EXPECTS(shift >= 0 && out_bits >= 1 && out_bits <= kBasePrecision);
  // Shift, ReLU and signed saturation as one clamp to [lo, hi]: ReLU raises
  // the floor to 0, which lies inside every out_bits range. The floor is a
  // sign mask on min(v, hi) - lo (no overflow: lo <= 0 and that value is at
  // most hi - lo) rather than a compare, which the compiler may turn into a
  // branch that mispredicts on mixed-sign accumulators under ReLU.
  const Wide hi = (Wide{1} << (out_bits - 1)) - 1;
  const Wide lo = relu ? 0 : -(Wide{1} << (out_bits - 1));
  Tensor out(acc.shape());
  const Wide* src = acc.data().data();
  Value* dst = out.data().data();
  const std::int64_t n = acc.elements();
  for (std::int64_t i = 0; i < n; ++i) {
    const Wide d = std::min(src[i] >> shift, hi) - lo;  // cannot overflow
    dst[i] = static_cast<Value>((d & ~(d >> 63)) + lo);
  }
  return out;
}

int choose_requant_shift(const WideTensor& acc, int out_bits) {
  LOOM_EXPECTS(out_bits >= 1 && out_bits <= kBasePrecision);
  // The peak magnitude as max(max, -min): two branch-free reductions, which
  // the compiler vectorizes where the target has 64-bit compares.
  const Wide* src = acc.data().data();
  const std::int64_t n = acc.elements();
  Wide maxv = 0;
  Wide minv = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    maxv = std::max(maxv, src[i]);
    minv = std::min(minv, src[i]);
  }
  const Wide peak = std::max(maxv, -minv);
  int shift = 0;
  const Wide limit = (Wide{1} << (out_bits - 1)) - 1;
  while ((peak >> shift) > limit) ++shift;
  return shift;
}

}  // namespace loom::nn
