#include "sim/dpnn_functional.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "nn/im2col.hpp"
#include "sim/conv_stats.hpp"

namespace loom::sim {

namespace {

Value window_value(const nn::Layer& layer, const nn::Tensor& input,
                   std::int64_t g, std::int64_t window, std::int64_t flat) {
  const std::int64_t idx = nn::im2col_input_index(layer, g, window, flat);
  return idx < 0 ? 0 : input.flat(idx);
}

/// DPNN semantics for the fast backends: every operand at full signed
/// 16-bit precision, no dynamic trimming. `rows`/`cols` only shape the
/// stats — the exact accumulators do not depend on them.
constexpr SliceSpec kDpnnSpec{.act_precision = kBasePrecision,
                              .weight_precision = kBasePrecision,
                              .act_signed = true,
                              .dynamic = false};

/// Allocate one run per request (accumulators of `wide_shape`) and marshal
/// the pointer views the word-parallel backends consume.
std::vector<DpnnFunctionalRun> make_runs(
    const nn::Layer& layer, std::span<const nn::Tensor> inputs,
    const nn::Shape& wide_shape, std::vector<const nn::Tensor*>& in_ptrs,
    std::vector<nn::WideTensor*>& wide_ptrs) {
  std::vector<DpnnFunctionalRun> runs;
  runs.reserve(inputs.size());
  in_ptrs.resize(inputs.size());
  wide_ptrs.resize(inputs.size());
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    DpnnFunctionalRun run;
    run.name = layer.name;
    run.wide = nn::WideTensor(wide_shape);
    runs.push_back(std::move(run));
    in_ptrs[r] = &inputs[r];
    wide_ptrs[r] = &runs[r].wide;
  }
  return runs;
}

/// Requantize per request (shift choice per request — identical to solo
/// runs).
void requantize_runs(std::vector<DpnnFunctionalRun>& runs, int out_bits,
                     bool relu) {
  for (DpnnFunctionalRun& run : runs) {
    run.requant_shift = nn::choose_requant_shift(run.wide, out_bits);
    run.output = nn::requantize(run.wide, run.requant_shift, out_bits, relu);
  }
}

}  // namespace

FunctionalDpnnEngine::FunctionalDpnnEngine(DpnnFunctionalOptions opts)
    : opts_(opts),
      layers_(opts.backend, opts.force_scalar,
              BackendContext{.rows = opts.filters,
                             .cols = 16,
                             .lanes = opts.act_lanes,
                             .jobs = opts.jobs}) {
  LOOM_EXPECTS(opts.act_lanes >= 1 && opts.filters >= 1);
}

DpnnFunctionalRun FunctionalDpnnEngine::run_conv(const nn::Layer& layer,
                                                 const nn::Tensor& input,
                                                 const nn::Tensor& weights,
                                                 int out_bits) {
  return std::move(run_conv_batch(layer, std::span<const nn::Tensor>(&input, 1),
                                  weights, out_bits)
                       .front());
}

DpnnFunctionalRun FunctionalDpnnEngine::run_fc(const nn::Layer& layer,
                                               const nn::Tensor& input,
                                               const nn::Tensor& weights,
                                               int out_bits) {
  return std::move(run_fc_batch(layer, std::span<const nn::Tensor>(&input, 1),
                                weights, out_bits)
                       .front());
}

std::vector<DpnnFunctionalRun> FunctionalDpnnEngine::run_conv_batch(
    const nn::Layer& layer, std::span<const nn::Tensor> inputs,
    const nn::Tensor& weights, int out_bits) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  LOOM_EXPECTS(!inputs.empty());
  std::vector<const nn::Tensor*> in_ptrs;
  std::vector<nn::WideTensor*> wide_ptrs;
  std::vector<DpnnFunctionalRun> runs =
      make_runs(layer, inputs, nn::Shape{layer.out.c, layer.out.h, layer.out.w},
                in_ptrs, wide_ptrs);

  if (layers_.resolved() == "scalar") {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      runs[r].cycles = ip_unit_conv(layer, inputs[r], weights, runs[r].wide);
    }
  } else {
    std::string used;
    (void)layers_.run_conv(layer, in_ptrs, weights, kDpnnSpec, wide_ptrs, used);
    // The baseline schedule is data-independent: one cycle per (filter
    // block, window, input chunk).
    const std::int64_t fb_count =
        ceil_div(layer.group_out_channels(), opts_.filters);
    const std::int64_t ic_count = ceil_div(
        layer.inner_length(), static_cast<std::int64_t>(opts_.act_lanes));
    for (DpnnFunctionalRun& run : runs) {
      run.cycles = static_cast<std::uint64_t>(layer.groups) *
                   static_cast<std::uint64_t>(fb_count) *
                   static_cast<std::uint64_t>(layer.windows()) *
                   static_cast<std::uint64_t>(ic_count);
    }
  }
  requantize_runs(runs, out_bits, opts_.relu);
  return runs;
}

std::vector<DpnnFunctionalRun> FunctionalDpnnEngine::run_fc_batch(
    const nn::Layer& layer, std::span<const nn::Tensor> inputs,
    const nn::Tensor& weights, int out_bits) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kFullyConnected);
  LOOM_EXPECTS(!inputs.empty());
  std::vector<const nn::Tensor*> in_ptrs;
  std::vector<nn::WideTensor*> wide_ptrs;
  std::vector<DpnnFunctionalRun> runs = make_runs(
      layer, inputs, nn::Shape{layer.out.c, 1, 1}, in_ptrs, wide_ptrs);

  if (layers_.resolved() == "scalar") {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      runs[r].cycles = ip_unit_fc(layer, inputs[r], weights, runs[r].wide);
    }
  } else {
    std::string used;
    layers_.run_fc(layer, in_ptrs, weights, kBasePrecision, wide_ptrs, used);
    const std::int64_t fb_count =
        ceil_div(static_cast<std::int64_t>(layer.out.c), opts_.filters);
    const std::int64_t ic_count = ceil_div(
        layer.in.elements(), static_cast<std::int64_t>(opts_.act_lanes));
    for (DpnnFunctionalRun& run : runs) {
      run.cycles = static_cast<std::uint64_t>(fb_count) *
                   static_cast<std::uint64_t>(ic_count);
    }
  }
  requantize_runs(runs, out_bits, opts_.relu);
  return runs;
}

std::uint64_t FunctionalDpnnEngine::ip_unit_conv(const nn::Layer& layer,
                                                 const nn::Tensor& input,
                                                 const nn::Tensor& weights,
                                                 nn::WideTensor& wide) const {
  const int lanes = opts_.act_lanes;
  const std::int64_t inner = layer.inner_length();
  const std::int64_t windows = layer.windows();
  const std::int64_t cog = layer.group_out_channels();
  const std::int64_t fb_count = ceil_div(cog, opts_.filters);
  std::uint64_t cycles = 0;
  std::vector<arch::IpUnit> ips(static_cast<std::size_t>(opts_.filters),
                                arch::IpUnit(lanes));
  std::vector<Value> acts(static_cast<std::size_t>(lanes));
  std::vector<Value> wvals(static_cast<std::size_t>(lanes));

  for (std::int64_t g = 0; g < layer.groups; ++g) {
    for (std::int64_t fb = 0; fb < fb_count; ++fb) {
      const std::int64_t f0 = fb * opts_.filters;
      const std::int64_t filters_used =
          std::min<std::int64_t>(opts_.filters, cog - f0);
      for (std::int64_t window = 0; window < windows; ++window) {
        for (auto& ip : ips) ip.begin_output();
        for (std::int64_t base = 0; base < inner; base += lanes) {
          // One cycle: lanes activations broadcast to all IP units.
          const std::int64_t n = std::min<std::int64_t>(lanes, inner - base);
          for (std::int64_t l = 0; l < n; ++l) {
            acts[static_cast<std::size_t>(l)] =
                window_value(layer, input, g, window, base + l);
          }
          std::fill(acts.begin() + static_cast<std::ptrdiff_t>(n), acts.end(), 0);
          for (std::int64_t f = 0; f < filters_used; ++f) {
            const std::int64_t co = g * cog + f0 + f;
            for (std::int64_t l = 0; l < n; ++l) {
              wvals[static_cast<std::size_t>(l)] =
                  weights.flat(co * inner + base + l);
            }
            std::fill(wvals.begin() + static_cast<std::ptrdiff_t>(n), wvals.end(), 0);
            ips[static_cast<std::size_t>(f)].cycle(acts, wvals);
          }
          ++cycles;
        }
        Wide* col = wide.data().data() + (g * cog + f0) * windows + window;
        for (std::int64_t f = 0; f < filters_used; ++f) {
          col[f * windows] = ips[static_cast<std::size_t>(f)].output();
        }
      }
    }
  }
  return cycles;
}

std::uint64_t FunctionalDpnnEngine::ip_unit_fc(const nn::Layer& layer,
                                               const nn::Tensor& input,
                                               const nn::Tensor& weights,
                                               nn::WideTensor& wide) const {
  const int lanes = opts_.act_lanes;
  const std::int64_t ci = layer.in.elements();
  const std::int64_t fb_count = ceil_div(static_cast<std::int64_t>(layer.out.c),
                                         opts_.filters);
  std::uint64_t cycles = 0;
  std::vector<arch::IpUnit> ips(static_cast<std::size_t>(opts_.filters),
                                arch::IpUnit(lanes));
  std::vector<Value> acts(static_cast<std::size_t>(lanes));
  std::vector<Value> wvals(static_cast<std::size_t>(lanes));

  for (std::int64_t fb = 0; fb < fb_count; ++fb) {
    const std::int64_t f0 = fb * opts_.filters;
    const std::int64_t filters_used =
        std::min<std::int64_t>(opts_.filters, layer.out.c - f0);
    for (auto& ip : ips) ip.begin_output();
    for (std::int64_t base = 0; base < ci; base += lanes) {
      const std::int64_t n = std::min<std::int64_t>(lanes, ci - base);
      for (std::int64_t l = 0; l < n; ++l) {
        acts[static_cast<std::size_t>(l)] = input.flat(base + l);
      }
      std::fill(acts.begin() + static_cast<std::ptrdiff_t>(n), acts.end(), 0);
      for (std::int64_t f = 0; f < filters_used; ++f) {
        for (std::int64_t l = 0; l < n; ++l) {
          wvals[static_cast<std::size_t>(l)] =
              weights.flat((f0 + f) * ci + base + l);
        }
        std::fill(wvals.begin() + static_cast<std::ptrdiff_t>(n), wvals.end(), 0);
        ips[static_cast<std::size_t>(f)].cycle(acts, wvals);
      }
      ++cycles;
    }
    for (std::int64_t f = 0; f < filters_used; ++f) {
      wide.set_flat(f0 + f, ips[static_cast<std::size_t>(f)].output());
    }
  }
  return cycles;
}

}  // namespace loom::sim
