#include "sim/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "arch/dispatcher.hpp"
#include "arch/sip.hpp"
#include "arch/tile.hpp"
#include "common/error.hpp"
#include "nn/im2col.hpp"
#include "sim/functional.hpp"
#include "sim/lut_engine.hpp"
#include "sim/madd_engine.hpp"

namespace loom::sim {

namespace {

// ---------------------------------------------------------------------------
// Scalar oracle backend: one arch::Sip per (row, column), driven bit by bit
// through a dispatcher. This is FunctionalLoomEngine's historical scalar
// path verbatim — it defines the semantics every other backend is pinned
// against. A batch runs as N solo passes (the batching-semantics oracle);
// streaming counters come back as ConvStats deltas of the backend's own
// dispatcher, so the engine can fold them into its dispatcher uniformly.

class ScalarBackend final : public FunctionalBackend {
 public:
  explicit ScalarBackend(const BackendContext& ctx)
      : ctx_(ctx), dispatcher_(ctx.lanes) {}

  ConvStats run_conv_batch(
      const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
      const nn::Tensor& weights, const SliceSpec& spec,
      std::span<nn::WideTensor* const> wides) override {
    LOOM_EXPECTS(!spec.act_signed);  // the scalar conv grid is unsigned-only
    LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size());
    ConvStats st;
    const std::uint64_t act0 = dispatcher_.activation_bits_streamed();
    const std::uint64_t wgt0 = dispatcher_.weight_bits_streamed();
    const std::uint64_t inv0 = dispatcher_.detector().invocations();
    const std::uint64_t val0 = dispatcher_.detector().values_inspected();

    act_buf_.resize(static_cast<std::size_t>(ctx_.cols) *
                    static_cast<std::size_t>(ctx_.lanes));
    weight_buf_.resize(static_cast<std::size_t>(ctx_.rows) *
                       static_cast<std::size_t>(ctx_.lanes));
    const std::int64_t windows = layer.windows();
    const std::int64_t fb_count =
        ceil_div(layer.group_out_channels(), static_cast<std::int64_t>(ctx_.rows));
    const std::int64_t wb_count =
        ceil_div(windows, static_cast<std::int64_t>(ctx_.cols));
    for (std::size_t r = 0; r < inputs.size(); ++r) {
      for (std::int64_t g = 0; g < layer.groups; ++g) {
        for (std::int64_t fb = 0; fb < fb_count; ++fb) {
          for (std::int64_t wb = 0; wb < wb_count; ++wb) {
            st.cycles += conv_block(layer, *inputs[r], weights, spec, g, fb, wb,
                                    *wides[r], st.streamed_pa, st.chunks);
          }
        }
      }
    }

    st.act_bits_streamed = dispatcher_.activation_bits_streamed() - act0;
    st.weight_bits_streamed = dispatcher_.weight_bits_streamed() - wgt0;
    st.detect_invocations = dispatcher_.detector().invocations() - inv0;
    st.detect_values = dispatcher_.detector().values_inspected() - val0;
    return st;
  }

  void run_fc_batch(const nn::Layer& layer,
                    std::span<const nn::Tensor* const> inputs,
                    const nn::Tensor& weights, int weight_precision,
                    std::span<nn::WideTensor* const> wides) override {
    LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size());
    for (std::size_t r = 0; r < inputs.size(); ++r) {
      fc_one(layer, *inputs[r], weights, weight_precision, *wides[r]);
    }
  }

 private:
  /// One request's FC layer through a fresh SIP per lane chunk.
  void fc_one(const nn::Layer& layer, const nn::Tensor& input,
              const nn::Tensor& weights, int weight_precision,
              nn::WideTensor& wide) const {
    const std::int64_t ci = layer.in.elements();
    const arch::SipConfig sip_cfg{ctx_.lanes, /*act_signed=*/true,
                                  /*weight_signed=*/true};
    std::vector<Value> a(static_cast<std::size_t>(ctx_.lanes));
    std::vector<Value> w(static_cast<std::size_t>(ctx_.lanes));
    for (std::int64_t co = 0; co < layer.out.c; ++co) {
      Wide acc = 0;
      for (std::int64_t base = 0; base < ci; base += ctx_.lanes) {
        const std::int64_t n = std::min<std::int64_t>(ctx_.lanes, ci - base);
        for (std::int64_t i = 0; i < n; ++i) {
          a[static_cast<std::size_t>(i)] = input.flat(base + i);
          w[static_cast<std::size_t>(i)] = weights.flat(co * ci + base + i);
        }
        arch::Sip chunk_sip(sip_cfg);
        acc += arch::sip_inner_product(
            chunk_sip,
            std::span<const Value>(a.data(), static_cast<std::size_t>(n)),
            std::span<const Value>(w.data(), static_cast<std::size_t>(n)),
            kBasePrecision, weight_precision);
      }
      wide.set_flat(co, acc);
    }
  }

  /// Gather the window values of one (group, window) at inner positions
  /// [base, base+lanes) with zero padding, matching im2col order.
  static std::int64_t gather_window_chunk(const nn::Layer& layer,
                                          const nn::Tensor& input,
                                          std::int64_t g, std::int64_t window,
                                          std::int64_t base, int lanes,
                                          Value* out) {
    const std::int64_t end =
        std::min<std::int64_t>(base + lanes, layer.inner_length());
    for (std::int64_t f = base; f < end; ++f) {
      const std::int64_t idx = nn::im2col_input_index(layer, g, window, f);
      out[f - base] = idx < 0 ? Value{0} : input.flat(idx);
    }
    return end - base;
  }

  /// One (filter-block, window-block) tile pass over all input chunks.
  std::uint64_t conv_block(const nn::Layer& layer, const nn::Tensor& input,
                           const nn::Tensor& weights,
                           const SliceSpec& spec,
                           std::int64_t g, std::int64_t fb, std::int64_t wb,
                           nn::WideTensor& wide, double& streamed_pa,
                           std::int64_t& chunks) {
    const std::int64_t cog = layer.group_out_channels();
    const std::int64_t inner = layer.inner_length();
    const std::int64_t windows = layer.windows();
    const std::int64_t row0 = fb * ctx_.rows;
    const std::int64_t rows_used = std::min<std::int64_t>(ctx_.rows, cog - row0);
    const std::int64_t col0 = wb * ctx_.cols;
    const std::int64_t cols_used =
        std::min<std::int64_t>(ctx_.cols, windows - col0);

    // One SIP per (row, col); ORs accumulate across input chunks.
    const arch::SipConfig sip_cfg{ctx_.lanes, /*act_signed=*/false,
                                  /*weight_signed=*/true};
    std::vector<arch::Sip> sips(static_cast<std::size_t>(rows_used) *
                                    static_cast<std::size_t>(cols_used),
                                arch::Sip(sip_cfg));
    for (auto& sip : sips) sip.begin_output();

    std::uint64_t block_cycles = 0;
    const std::int64_t ic_count =
        ceil_div(inner, static_cast<std::int64_t>(ctx_.lanes));
    const auto lanes = static_cast<std::size_t>(ctx_.lanes);
    for (std::int64_t ic = 0; ic < ic_count; ++ic) {
      act_spans_.clear();
      std::int64_t n = 0;
      for (std::int64_t c = 0; c < cols_used; ++c) {
        Value* dst = act_buf_.data() + static_cast<std::size_t>(c) * lanes;
        n = gather_window_chunk(layer, input, g, col0 + c, ic * ctx_.lanes,
                                ctx_.lanes, dst);
        act_spans_.emplace_back(dst, static_cast<std::size_t>(n));
      }
      dispatcher_.stream_activations(act_spans_, spec.act_precision,
                                     spec.dynamic, act_stream_);
      const arch::ActivationStream& acts = act_stream_;

      weight_spans_.clear();
      for (std::int64_t r = 0; r < rows_used; ++r) {
        Value* dst = weight_buf_.data() + static_cast<std::size_t>(r) * lanes;
        const std::int64_t co = g * cog + row0 + r;
        const std::int64_t base = co * inner + ic * ctx_.lanes;
        for (std::int64_t l = 0; l < n; ++l) dst[l] = weights.flat(base + l);
        weight_spans_.emplace_back(dst, static_cast<std::size_t>(n));
      }
      dispatcher_.stream_weights(weight_spans_, spec.weight_precision,
                                 weight_stream_);
      const arch::WeightStream& wbits = weight_stream_;

      streamed_pa += acts.precision;
      ++chunks;
      for (int bit = 0; bit < wbits.precision; ++bit) {
        const bool msb = bit == wbits.precision - 1;
        for (std::int64_t r = 0; r < rows_used; ++r) {
          const std::uint32_t wr = wbits.wr_word(bit, static_cast<int>(r));
          for (std::int64_t c = 0; c < cols_used; ++c) {
            sips[static_cast<std::size_t>(r * cols_used + c)].begin_weight_pass(
                wr, bit, msb);
          }
        }
        for (int step = 0; step < acts.precision; ++step) {
          for (std::int64_t c = 0; c < cols_used; ++c) {
            const std::uint32_t bits = acts.lanes(step, static_cast<int>(c));
            for (std::int64_t r = 0; r < rows_used; ++r) {
              sips[static_cast<std::size_t>(r * cols_used + c)].cycle(
                  bits, /*is_act_msb=*/false);  // conv acts are unsigned
            }
          }
          ++block_cycles;
        }
        for (auto& sip : sips) sip.end_weight_pass();
      }
    }

    for (std::int64_t r = 0; r < rows_used; ++r) {
      Wide* row = wide.data().data() + (g * cog + row0 + r) * windows + col0;
      for (std::int64_t c = 0; c < cols_used; ++c) {
        row[c] = sips[static_cast<std::size_t>(r * cols_used + c)].output();
      }
    }
    return block_cycles;
  }

  BackendContext ctx_;
  arch::Dispatcher dispatcher_;
  std::vector<Value> act_buf_, weight_buf_;
  std::vector<std::span<const Value>> act_spans_, weight_spans_;
  arch::ActivationStream act_stream_;
  arch::WeightStream weight_stream_;
};

// ---------------------------------------------------------------------------
// LUT backend: the T-MAC-style table kernel.

class LutBackend final : public FunctionalBackend {
 public:
  explicit LutBackend(const BackendContext& ctx)
      : engine_({.rows = ctx.rows,
                 .cols = ctx.cols,
                 .lanes = ctx.lanes,
                 .jobs = ctx.jobs}) {}

  ConvStats run_conv_batch(
      const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
      const nn::Tensor& weights, const SliceSpec& spec,
      std::span<nn::WideTensor* const> wides) override {
    return engine_.run_conv_batch(layer, inputs, weights, spec, wides);
  }

  void run_fc_batch(const nn::Layer& layer,
                    std::span<const nn::Tensor* const> inputs,
                    const nn::Tensor& weights, int weight_precision,
                    std::span<nn::WideTensor* const> wides) override {
    engine_.run_fc_batch(layer, inputs, weights, weight_precision, wides);
  }

 private:
  LutEngine engine_;
};

// ---------------------------------------------------------------------------
// Multiply-add backend: the bit-parallel int16 GEMM/GEMV kernel.

class MaddBackend final : public FunctionalBackend {
 public:
  explicit MaddBackend(const BackendContext& ctx)
      : engine_({.rows = ctx.rows,
                 .cols = ctx.cols,
                 .lanes = ctx.lanes,
                 .jobs = ctx.jobs}) {}

  ConvStats run_conv_batch(
      const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
      const nn::Tensor& weights, const SliceSpec& spec,
      std::span<nn::WideTensor* const> wides) override {
    return engine_.run_conv_batch(layer, inputs, weights, spec, wides);
  }

  void run_fc_batch(const nn::Layer& layer,
                    std::span<const nn::Tensor* const> inputs,
                    const nn::Tensor& weights, int weight_precision,
                    std::span<nn::WideTensor* const> wides) override {
    engine_.run_fc_batch(layer, inputs, weights, weight_precision, wides);
  }

 private:
  MaddEngine engine_;
};

bool scalar_supports(const BackendContext&) { return true; }

std::unique_ptr<FunctionalBackend> make_scalar(const BackendContext& ctx) {
  return std::make_unique<ScalarBackend>(ctx);
}

/// The grid envelope of the fast backends: a column group fits one 64-bit
/// slab and an input chunk at most 32 lanes. Anything wider runs on the
/// scalar oracle.
bool grid_supports(const BackendContext& ctx) {
  return ctx.cols >= 1 && ctx.cols <= 64 && ctx.lanes >= 1 &&
         ctx.lanes <= 32 && ctx.rows >= 1;
}

std::unique_ptr<FunctionalBackend> make_lut(const BackendContext& ctx) {
  return std::make_unique<LutBackend>(ctx);
}

std::unique_ptr<FunctionalBackend> make_madd(const BackendContext& ctx) {
  return std::make_unique<MaddBackend>(ctx);
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry

struct BackendRegistry::Impl {
  mutable std::mutex mu;
  std::deque<BackendInfo> entries;  // deque: stable addresses for find()
};

BackendRegistry::BackendRegistry() : impl_(new Impl) {
  impl_->entries.push_back(
      {.name = "scalar", .tunable = false, .supports = scalar_supports,
       .make = make_scalar});
  // First among the tunables: the autotuner samples candidates in
  // registration order, so a cold "auto" cell already runs it.
  impl_->entries.push_back(
      {.name = "madd", .tunable = true, .supports = grid_supports,
       .make = make_madd});
  impl_->entries.push_back(
      {.name = "lut", .tunable = true, .supports = grid_supports,
       .make = make_lut});
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry* reg = new BackendRegistry;  // leaked, never torn down
  return *reg;
}

void BackendRegistry::register_backend(BackendInfo info) {
  LOOM_EXPECTS(!info.name.empty() && info.supports != nullptr &&
               info.make != nullptr);
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (BackendInfo& e : impl_->entries) {
    if (e.name == info.name) {
      e = std::move(info);
      return;
    }
  }
  impl_->entries.push_back(std::move(info));
}

const BackendInfo* BackendRegistry::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const BackendInfo& e : impl_->entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<std::string> BackendRegistry::names() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> out;
  out.reserve(impl_->entries.size());
  for (const BackendInfo& e : impl_->entries) out.push_back(e.name);
  return out;
}

std::vector<std::string> BackendRegistry::tunable_names(
    const BackendContext& ctx) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> out;
  for (const BackendInfo& e : impl_->entries) {
    if (e.tunable && e.supports(ctx)) out.push_back(e.name);
  }
  return out;
}

std::string resolve_backend_name(std::string_view requested, bool force_scalar,
                                 const BackendContext& ctx) {
  if (force_scalar || functional_scalar_env()) return "scalar";
  std::string name(requested);
  if (name.empty()) {
    const char* env = std::getenv("LOOM_FUNCTIONAL_BACKEND");
    if (env != nullptr && env[0] != '\0') name = env;
  }
  if (name.empty()) name = "auto";
  if (name == "auto") {
    return BackendRegistry::instance().tunable_names(ctx).empty() ? "scalar"
                                                                  : "auto";
  }
  const BackendInfo* info = BackendRegistry::instance().find(name);
  if (info == nullptr) {
    throw ConfigError("unknown functional backend: " + name);
  }
  if (!info->supports(ctx)) return "scalar";  // historical cols>64 fallback
  return name;
}

// ---------------------------------------------------------------------------
// TuneKey

std::string TuneKey::to_string() const {
  std::ostringstream os;
  os << (kind == 0 ? "conv" : "fc") << " in=" << in_c << "x" << in_h << "x"
     << in_w << " out_c=" << out_c;
  if (kind == 0) {
    os << " k=" << kernel_h << "x" << kernel_w << " s=" << stride
       << " p=" << pad << " g=" << groups;
  }
  os << " pa=" << pa << " pw=" << pw;
  if (act_signed) os << " signed";
  if (dynamic) os << " dyn";
  os << " batch=" << batch << " grid=" << rows << "x" << cols << "x" << lanes
     << " jobs=" << jobs;
  return os.str();
}

TuneKey conv_tune_key(const nn::Layer& layer,
                      const SliceSpec& spec, int batch,
                      const BackendContext& ctx) {
  TuneKey k;
  k.kind = 0;
  k.in_c = layer.in.c;
  k.in_h = layer.in.h;
  k.in_w = layer.in.w;
  k.out_c = layer.out.c;
  k.kernel_h = layer.kernel_h;
  k.kernel_w = layer.kernel_w;
  k.stride = layer.stride;
  k.pad = layer.pad;
  k.groups = layer.groups;
  k.pa = spec.act_precision;
  k.pw = spec.weight_precision;
  k.act_signed = spec.act_signed;
  k.dynamic = spec.dynamic;
  k.batch = batch;
  k.rows = ctx.rows;
  k.cols = ctx.cols;
  k.lanes = ctx.lanes;
  k.jobs = ctx.jobs;
  return k;
}

TuneKey fc_tune_key(const nn::Layer& layer, int weight_precision, int batch,
                    const BackendContext& ctx) {
  TuneKey k;
  k.kind = 1;
  k.in_c = layer.in.elements();
  k.in_h = 1;
  k.in_w = 1;
  k.out_c = layer.out.c;
  k.pa = kBasePrecision;
  k.pw = weight_precision;
  k.act_signed = true;
  k.batch = batch;
  k.rows = ctx.rows;
  k.cols = ctx.cols;
  k.lanes = ctx.lanes;
  k.jobs = ctx.jobs;
  return k;
}

// ---------------------------------------------------------------------------
// Autotuner

struct BackendAutotuner::Impl {
  struct Cell {
    std::vector<std::string> candidates;
    std::map<std::string, std::uint64_t> samples;  ///< best (min) ns seen
    std::set<std::string> claimed;  ///< handed out, measurement in flight
    std::string winner;
    bool pinned = false;
  };

  mutable std::mutex mu;
  std::map<TuneKey, Cell> cells;
  std::string pin;
  std::function<std::uint64_t(const TuneKey&, const std::string&)> override_fn;
  CacheStats cache_stats;

  static void read_pin(std::string& pin) {
    const char* v = std::getenv("LOOM_AUTOTUNE_PIN");
    pin = (v != nullptr) ? v : "";
  }

  /// All candidates sampled → the argmin (candidate order breaks ties).
  static void maybe_decide(Cell& cell) {
    if (!cell.winner.empty()) return;
    std::uint64_t best = 0;
    const std::string* best_name = nullptr;
    for (const std::string& c : cell.candidates) {
      auto it = cell.samples.find(c);
      if (it == cell.samples.end()) return;  // still exploring
      if (best_name == nullptr || it->second < best) {
        best = it->second;
        best_name = &c;
      }
    }
    if (best_name != nullptr) cell.winner = *best_name;
  }
};

BackendAutotuner::BackendAutotuner() : impl_(new Impl) {
  Impl::read_pin(impl_->pin);
}

BackendAutotuner& BackendAutotuner::instance() {
  static BackendAutotuner* tuner = new BackendAutotuner;  // leaked singleton
  return *tuner;
}

std::string BackendAutotuner::choose(const TuneKey& key,
                                     std::span<const std::string> candidates) {
  LOOM_EXPECTS(!candidates.empty());
  std::lock_guard<std::mutex> lock(impl_->mu);
  Impl::Cell& cell = impl_->cells[key];
  if (cell.candidates.empty()) {
    cell.candidates.assign(candidates.begin(), candidates.end());
  }
  if (cell.winner.empty() && !impl_->pin.empty()) {
    if (std::find(cell.candidates.begin(), cell.candidates.end(),
                  impl_->pin) != cell.candidates.end()) {
      cell.winner = impl_->pin;
      cell.pinned = true;
    }
  }
  if (cell.winner.empty() && impl_->override_fn) {
    for (const std::string& c : cell.candidates) {
      cell.samples[c] = impl_->override_fn(key, c);
    }
    Impl::maybe_decide(cell);
  }
  if (!cell.winner.empty()) return cell.winner;
  // Exploration: hand out the next unsampled, unclaimed candidate so its
  // timing piggybacks on a real run. A claim that never records (the run
  // threw) simply falls through to the argmin-or-first fallback below.
  for (const std::string& c : cell.candidates) {
    if (cell.samples.count(c) == 0 && cell.claimed.count(c) == 0) {
      cell.claimed.insert(c);
      return c;
    }
  }
  if (!cell.samples.empty()) {
    std::uint64_t best = 0;
    const std::string* best_name = nullptr;
    for (const std::string& c : cell.candidates) {
      auto it = cell.samples.find(c);
      if (it != cell.samples.end() &&
          (best_name == nullptr || it->second < best)) {
        best = it->second;
        best_name = &c;
      }
    }
    if (best_name != nullptr) return *best_name;
  }
  return cell.candidates.front();
}

void BackendAutotuner::record(const TuneKey& key, std::string_view backend,
                              std::uint64_t ns) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->cells.find(key);
  if (it == impl_->cells.end()) return;
  Impl::Cell& cell = it->second;
  const std::string name(backend);
  cell.claimed.erase(name);
  if (cell.winner.empty()) ++impl_->cache_stats.explore_records;
  auto [sit, inserted] = cell.samples.try_emplace(name, ns);
  if (!inserted) sit->second = std::min(sit->second, ns);
  Impl::maybe_decide(cell);
}

std::vector<BackendAutotuner::Decision> BackendAutotuner::decisions() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<Decision> out;
  out.reserve(impl_->cells.size());
  for (const auto& [key, cell] : impl_->cells) {  // map: key-sorted
    Decision d;
    d.key = key;
    d.winner = cell.winner;
    d.pinned = cell.pinned;
    for (const std::string& c : cell.candidates) {
      auto it = cell.samples.find(c);
      if (it != cell.samples.end()) d.samples.push_back({c, it->second});
    }
    out.push_back(std::move(d));
  }
  return out;
}

BackendAutotuner::CacheStats BackendAutotuner::cache_stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->cache_stats;
}

void BackendAutotuner::set_timing_override_for_test(
    std::function<std::uint64_t(const TuneKey&, const std::string&)> fn) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->override_fn = std::move(fn);
}

void BackendAutotuner::reset_for_test() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->cells.clear();
  impl_->cache_stats = CacheStats{};
  Impl::read_pin(impl_->pin);
}

// ---------------------------------------------------------------------------
// LayerDispatcher

LayerDispatcher::LayerDispatcher(std::string_view requested, bool force_scalar,
                                 const BackendContext& ctx)
    : ctx_(ctx), resolved_(resolve_backend_name(requested, force_scalar, ctx)) {
  if (resolved_ == "auto") {
    candidates_ = BackendRegistry::instance().tunable_names(ctx_);
  }
}

FunctionalBackend& LayerDispatcher::backend(const std::string& name) {
  auto it = backends_.find(name);
  if (it == backends_.end()) {
    const BackendInfo* info = BackendRegistry::instance().find(name);
    LOOM_EXPECTS(info != nullptr);
    it = backends_.emplace(name, info->make(ctx_)).first;
  }
  return *it->second;
}

template <typename Run>
void LayerDispatcher::dispatch(const TuneKey& key, std::string& used,
                               Run&& run) {
  if (resolved_ != "auto") {
    used = resolved_;
    run(backend(used));
    return;
  }
  // Every candidate computes identical bytes, so exploration piggybacks on
  // real layer runs: the tuner hands out whichever kernel it still needs a
  // timing for, and the measurement is the run the caller wanted anyway.
  used = BackendAutotuner::instance().choose(key, candidates_);
  const auto t0 = std::chrono::steady_clock::now();
  run(backend(used));
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - t0);
  BackendAutotuner::instance().record(key, used,
                                      static_cast<std::uint64_t>(ns.count()));
}

ConvStats LayerDispatcher::run_conv(
    const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
    const nn::Tensor& weights, const SliceSpec& spec,
    std::span<nn::WideTensor* const> wides, std::string& used) {
  ConvStats st;
  dispatch(conv_tune_key(layer, spec, static_cast<int>(inputs.size()), ctx_),
           used, [&](FunctionalBackend& b) {
             st = b.run_conv_batch(layer, inputs, weights, spec, wides);
           });
  return st;
}

void LayerDispatcher::run_fc(const nn::Layer& layer,
                             std::span<const nn::Tensor* const> inputs,
                             const nn::Tensor& weights, int weight_precision,
                             std::span<nn::WideTensor* const> wides,
                             std::string& used) {
  dispatch(fc_tune_key(layer, weight_precision,
                       static_cast<int>(inputs.size()), ctx_),
           used, [&](FunctionalBackend& b) {
             b.run_fc_batch(layer, inputs, weights, weight_precision, wides);
           });
}

}  // namespace loom::sim
