#include "sim/conv_stats.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "sim/or_planes.hpp"

namespace loom::sim {

ConvStats conv_stream_stats(
    const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
    const SliceSpec& spec, const StatsGrid& grid) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  LOOM_EXPECTS(!inputs.empty());
  LOOM_EXPECTS(grid.rows >= 1 && grid.cols >= 1 && grid.lanes >= 1);

  const std::int64_t lanes = grid.lanes;
  const std::int64_t cols = grid.cols;
  const std::int64_t inner = layer.inner_length();
  const std::int64_t windows = layer.windows();
  const std::int64_t total = windows * static_cast<std::int64_t>(inputs.size());
  const std::int64_t groups = layer.groups;
  const std::int64_t cog = layer.group_out_channels();
  const std::int64_t ic_count = ceil_div(inner, lanes);
  const std::int64_t n_groups = ceil_div(total, cols);
  const auto fb = static_cast<std::uint64_t>(ceil_div(cog, grid.rows));
  const auto pw = static_cast<std::uint64_t>(spec.weight_precision);
  const int profile = spec.act_precision;

  // Every (conv group, input chunk, column group) is one streamed chunk per
  // filter block. Summed over chunks, group widths add up to `total` and
  // chunk lengths to `inner`.
  const auto entries =
      static_cast<std::uint64_t>(groups * ic_count * n_groups);
  const auto values = static_cast<std::uint64_t>(groups * total * inner);

  // sum of pa, and of pa * group_cols * chunk_len, over every entry
  std::uint64_t pa_sum = 0;
  std::uint64_t pa_values = 0;
  if (!spec.dynamic) {
    pa_sum = entries * static_cast<std::uint64_t>(profile);
    pa_values = values * static_cast<std::uint64_t>(profile);
  } else {
    std::vector<ActOrPlanes> planes;
    planes.reserve(inputs.size());
    for (const nn::Tensor* input : inputs) {
      planes.emplace_back(layer, grid.lanes);
      planes.back().build(*input);
    }
    for (std::int64_t g = 0; g < groups; ++g) {
      for (std::int64_t ic = 0; ic < ic_count; ++ic) {
        const auto n =
            static_cast<std::uint64_t>(std::min(lanes, inner - ic * lanes));
        for (std::int64_t j = 0; j < n_groups; ++j) {
          const std::int64_t c1 = std::min(total, (j + 1) * cols);
          std::uint32_t ored = 0;
          for (std::int64_t c = j * cols; c < c1;) {
            const std::int64_t r = c / windows;
            const std::int64_t w0 = c % windows;
            const std::int64_t w1 = std::min(windows, w0 + (c1 - c));
            const std::uint16_t* row =
                planes[static_cast<std::size_t>(r)].row(g, ic);
            for (std::int64_t w = w0; w < w1; ++w) ored |= row[w];
            c += w1 - w0;
          }
          const auto pa = static_cast<std::uint64_t>(
              std::min(needed_bits_unsigned(ored), profile));
          pa_sum += pa;
          pa_values += pa * static_cast<std::uint64_t>(c1 - j * cols) * n;
        }
      }
    }
  }

  ConvStats st;
  st.cycles = fb * pw * pa_sum;
  st.streamed_pa = static_cast<double>(fb * pa_sum);
  st.chunks = static_cast<std::int64_t>(fb * entries);
  st.act_bits_streamed = fb * pa_values;
  st.weight_bits_streamed =
      pw * static_cast<std::uint64_t>(groups * cog * inner * n_groups);
  if (spec.dynamic) {
    st.detect_invocations = fb * entries;
    st.detect_values = fb * values;
  }
  return st;
}

}  // namespace loom::sim
