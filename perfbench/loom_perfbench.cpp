// Whole-network benchmark of the loom library.
//
// One process runs one workload and prints human-readable lines followed by
// a single JSON line (`correct`, `attempted`, `failed`, `metrics`, `info`)
// that perfbench/run.py post-processes. The library is driven only through
// public calls: nn::zoo, quant::apply_profile, serve::ModelRegistry /
// load_snapshot / InferenceServer, sim::FunctionalLoomEngine,
// sim::BackendAutotuner, core::ExperimentRunner and sim::make_*_simulator.
//
// Workloads (see BENCHMARK.json for why each exists):
//   alexnet-solo, nin-solo  closed loop, one client, run_network at batch 1
//   alexnet-serve           closed loop, 4 in flight, into InferenceServer
//   paper-sweep             ExperimentRunner::compare over the paper zoo
//
// --trace 0 reports the end-to-end metrics; --trace 1 re-runs the same
// public calls one layer at a time, timing each, and reports the per-layer
// metrics (a metric a workload does not exercise reads 0).
//
//   loom_perfbench --workload nin-solo --seed 1 --seconds 10 --trace 0
//   loom_perfbench --workload alexnet-solo --seed 1 --setup-only
//   loom_perfbench --workload alexnet-serve --seed 1 --write-snapshot F
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpuid.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/runner.hpp"
#include "nn/reference.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "serve/model_registry.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/server.hpp"
#include "sim/backend.hpp"
#include "sim/functional.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace loom;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

int nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Linear interpolation between closest ranks; q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Every core busy for a fixed time, so set-up does not start on an idle
/// (down-clocked, descheduled) host.
void preroll(int millis) {
  if (millis <= 0) return;
  const auto until = Clock::now() + std::chrono::milliseconds(millis);
  std::vector<std::thread> spinners;
  std::atomic<std::uint64_t> sink{0};
  for (int t = 0; t < nproc(); ++t) {
    spinners.emplace_back([&, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
      while (Clock::now() < until) {
        for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + 1;
      }
      sink += x;
    });
  }
  for (auto& s : spinners) s.join();
}

// ---- Metrics -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"first_request_ms", "ms"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"img_per_s", "1/s"},
    {"goodput_share", "share"},
    {"peak_rss_mb", "MB"},
    {"modelled_mcycles_per_img", "Mcycles"},
};

const char* const kAlexnetLayers[] = {"conv1", "conv2", "conv3", "conv4",
                                      "conv5", "fc6",   "fc7",   "fc8"};
const char* const kNinLayers[] = {"conv1", "cccp1", "cccp2", "conv2",
                                  "cccp3", "cccp4", "conv3", "cccp5",
                                  "cccp6", "conv4", "cccp7", "cccp8"};
const char* const kSweepArchs[] = {"dpnn", "stripes", "lm1b",
                                   "lm2b", "lm4b",    "laconic"};

std::vector<std::pair<std::string, std::string>> per_layer_defs() {
  std::vector<std::pair<std::string, std::string>> defs;
  for (const char* l : kAlexnetLayers) {
    defs.emplace_back(std::string("sim.functional.alexnet.") + l + ".ms", "ms");
  }
  for (const char* l : kNinLayers) {
    defs.emplace_back(std::string("sim.functional.nin.") + l + ".ms", "ms");
  }
  for (const char* n : {"sim.functional.conv_ms", "sim.functional.fc_ms",
                        "nn.pool_ms", "sim.functional.first_call_overhead_ms"}) {
    defs.emplace_back(n, "ms");
  }
  for (const char* n : {"sim.autotune.explore_records", "sim.autotune.cells",
                        "sim.autotune.layers.bitslice", "sim.autotune.layers.lut",
                        "sim.autotune.layers.lut-outer"}) {
    defs.emplace_back(n, "count");
  }
  defs.emplace_back("serve.registry.materialize_ms", "ms");
  defs.emplace_back("serve.snapshot.load_ms", "ms");
  for (const char* l : kAlexnetLayers) {
    defs.emplace_back(std::string("sim.batch4.alexnet.") + l + ".ms_per_img",
                      "ms");
  }
  defs.emplace_back("serve.run_ms_per_img", "ms");
  defs.emplace_back("serve.mean_batch", "count");
  defs.emplace_back("serve.submit_us_p50", "us");
  defs.emplace_back("serve.queue_wait_p50_ms", "ms");
  for (const char* n : {"serve.retries", "serve.fallbacks", "serve.shed",
                        "serve.rejected", "serve.timed_out", "serve.failed"}) {
    defs.emplace_back(n, "count");
  }
  defs.emplace_back("sim.workload.fill_s", "s");
  for (const char* a : kSweepArchs) {
    defs.emplace_back(std::string("sim.") + a + ".run_s", "s");
  }
  defs.emplace_back("mem.offchip_s", "s");
  defs.emplace_back("trace.overhead_pct", "%");
  return defs;
}

/// The run's outcome: output checks, request counts and metric values.
class Report {
 public:
  explicit Report(bool trace) {
    if (trace) {
      for (auto& [name, unit] : per_layer_defs()) add_def(name, unit);
    } else {
      for (const MetricDef& d : kEndToEnd) add_def(d.name, d.unit);
    }
  }

  /// Set a declared metric; names outside the current set are ignored, so
  /// workloads can record end-to-end and per-layer values unconditionally.
  void set(const std::string& name, double value) {
    const auto it = index_.find(name);
    if (it != index_.end()) metrics_[it->second].value = value;
  }
  void check(bool ok, const std::string& what) {
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    correct_ = correct_ && ok;
  }
  void info(const std::string& key, const std::string& value) {
    std::printf("info  %-24s %s\n", key.c_str(), value.c_str());
    info_.emplace_back(key, value);
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void print_json() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-44s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}, \"info\": {";
    for (std::size_t i = 0; i < info_.size(); ++i) {
      out += (i ? ", \"" : "\"") + info_[i].first + "\": \"" +
             info_[i].second + "\"";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  void add_def(const std::string& name, const std::string& unit) {
    index_[name] = metrics_.size();
    metrics_.push_back({name, unit, 0.0});
  }
  std::vector<Metric> metrics_;
  std::map<std::string, std::size_t> index_;
  std::vector<std::pair<std::string, std::string>> info_;
  bool correct_ = true;
};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// ---- Arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  int preroll_ms = 1000;
  std::string snapshot;        ///< alexnet-serve: snapshot file to load
  std::string write_snapshot;  ///< write the serve model's snapshot and exit
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--setup-only") a.setup_only = true;
    else if (k == "--preroll-ms") a.preroll_ms = std::stoi(value());
    else if (k == "--snapshot") a.snapshot = value();
    else if (k == "--write-snapshot") a.write_snapshot = value();
    else throw ConfigError("unknown argument " + k);
  }
  if (a.seconds <= 0) throw ConfigError("--seconds must be positive");
  return a;
}

// ---- Functional network walk ------------------------------------------------

/// Out bits of weighted layer `i`: the next conv layer's profile Pa; an FC
/// consumer (or none) stores at base precision. The same rule
/// FunctionalLoomEngine::run_network applies between layers.
int consumer_out_bits(const nn::Network& net, std::size_t i) {
  for (std::size_t j = i + 1; j < net.size(); ++j) {
    if (net.layer(j).kind == nn::LayerKind::kConv) return net.layer(j).act_precision;
    if (net.layer(j).kind == nn::LayerKind::kFullyConnected) break;
  }
  return static_cast<int>(kBasePrecision);
}

/// run_network, one public layer call at a time, each one timed.
struct TracedWalk {
  sim::FunctionalNetworkRun run;
  std::vector<double> layer_ms;  ///< per weighted layer
  double pool_ms = 0.0;
};

TracedWalk traced_walk(sim::FunctionalLoomEngine& engine, const nn::Network& net,
                       const nn::Tensor& input,
                       std::span<const nn::Tensor> weights) {
  TracedWalk w;
  nn::Tensor current = input;
  std::size_t wi = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& layer = net.layer(i);
    const auto t0 = Clock::now();
    if (layer.kind == nn::LayerKind::kPool) {
      current = nn::pool_forward(current, layer);
      w.pool_ms += ms_since(t0);
      continue;
    }
    sim::FunctionalLayerRun lr =
        layer.kind == nn::LayerKind::kConv
            ? engine.run_conv(layer, current, weights[wi], consumer_out_bits(net, i))
            : engine.run_fc(layer, current, weights[wi], consumer_out_bits(net, i));
    w.layer_ms.push_back(ms_since(t0));
    ++wi;
    current = lr.output;
    w.run.total_cycles += lr.cycles;
    w.run.layers.push_back(std::move(lr));
  }
  w.run.output = std::move(current);
  return w;
}

/// Byte identity of two solo runs: every layer's outputs, accumulators,
/// shifts and cycles, and the network output.
bool same_run(const sim::FunctionalNetworkRun& a, const sim::FunctionalNetworkRun& b) {
  if (a.total_cycles != b.total_cycles || !(a.output == b.output) ||
      a.layers.size() != b.layers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const auto& x = a.layers[i];
    const auto& y = b.layers[i];
    if (x.cycles != y.cycles || x.requant_shift != y.requant_shift ||
        x.out_bits != y.out_bits || !(x.output == y.output) ||
        x.mean_streamed_precision != y.mean_streamed_precision ||
        x.wide.elements() != y.wide.elements() ||
        !std::equal(x.wide.data().begin(), x.wide.data().end(),
                    y.wide.data().begin())) {
      return false;
    }
  }
  return true;
}

/// The bit-parallel golden pipeline (nn::conv_forward / fc_forward /
/// pool_forward / requantize) with the run's requantization decisions; true
/// when every layer output and the network output match the engine's. Each
/// layer is fed the engine's previous output (equal to the reference's when
/// that layer matched), so the layers are checked in parallel.
bool matches_reference(const nn::Network& net, const nn::Tensor& input,
                       std::span<const nn::Tensor> weights,
                       const sim::FunctionalNetworkRun& run, bool relu) {
  struct Task {
    const nn::Layer* layer;
    nn::Tensor input;
    std::size_t wi;
  };
  std::vector<Task> tasks;
  nn::Tensor x = input;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& l = net.layer(i);
    if (l.kind == nn::LayerKind::kPool) {
      x = nn::pool_forward(x, l);
      continue;
    }
    const std::size_t wi = tasks.size();
    if (wi >= run.layers.size()) return false;
    tasks.push_back({&l, std::move(x), wi});
    x = run.layers[wi].output;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> ok{x == run.output && tasks.size() == run.layers.size()};
  std::vector<std::thread> pool;
  for (int t = 0; t < nproc(); ++t) {
    pool.emplace_back([&] {
      for (std::size_t k = next++; k < tasks.size(); k = next++) {
        const Task& task = tasks[k];
        const nn::WideTensor wide =
            task.layer->kind == nn::LayerKind::kConv
                ? nn::conv_forward(task.input, weights[task.wi], *task.layer)
                : nn::fc_forward(task.input, weights[task.wi], *task.layer);
        const sim::FunctionalLayerRun& lr = run.layers[task.wi];
        if (!(nn::requantize(wide, lr.requant_shift, lr.out_bits, relu) == lr.output)) {
          ok = false;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  return ok;
}

std::shared_ptr<const serve::Model> materialize(serve::ModelRegistry& reg,
                                                const std::string& name,
                                                std::uint64_t seed) {
  nn::Network net = nn::zoo::make(name);
  const quant::PrecisionProfile& profile =
      quant::profile_for(name, quant::AccuracyTarget::k100);
  quant::apply_profile(net, profile);
  return reg.add_synthetic(name, std::move(net), profile, seed);
}

bool autotuner_settled() {
  for (const auto& d : sim::BackendAutotuner::instance().decisions()) {
    if (d.winner.empty()) return false;
  }
  return true;
}

/// Per-layer winners and cell counts, recorded on every run.
void record_autotuner(Report& rep, const sim::FunctionalNetworkRun& run) {
  std::string winners;
  std::map<std::string, int> per_backend;
  for (const auto& lr : run.layers) {
    winners += (winners.empty() ? "" : " ") + lr.name + "=" + lr.backend;
    ++per_backend[lr.backend];
  }
  rep.info("layer_backends", winners);
  const auto& tuner = sim::BackendAutotuner::instance();
  rep.set("sim.autotune.cells", static_cast<double>(tuner.decisions().size()));
  rep.set("sim.autotune.explore_records",
          static_cast<double>(tuner.cache_stats().explore_records));
  for (const char* b : {"bitslice", "lut", "lut-outer"}) {
    rep.set(std::string("sim.autotune.layers.") + b, per_backend[b]);
  }
}

// ---- Solo workloads ---------------------------------------------------------

struct SoloSpec {
  std::string network;
  double tail_q;        ///< latency_tail_ms percentile
  double limit_ms;      ///< goodput latency limit
};

int run_solo(const Args& args, const SoloSpec& spec, Report& rep) {
  preroll(args.preroll_ms);
  const auto t_setup = Clock::now();
  serve::ModelRegistry registry;
  const auto model = materialize(registry, spec.network, args.seed);
  const double setup_ms = ms_since(t_setup);
  rep.set("setup_s", setup_ms / 1000.0);
  rep.set("serve.registry.materialize_ms", setup_ms);

  const nn::Network& net = model->net;
  const std::span<const nn::Tensor> weights = model->weights;
  sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = nproc()});
  std::uint64_t stream = 0;

  // Cold request: lazy allocation plus the first autotuner sample.
  nn::Tensor input = model->make_input(args.seed, stream++);
  auto t0 = Clock::now();
  sim::FunctionalNetworkRun run = engine.run_network(net, input, weights);
  const double first_ms = ms_since(t0);
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g, \"first_request_ms\": %.17g}\n",
                setup_ms / 1000.0, first_ms);
    return 0;
  }
  rep.set("first_request_ms", first_ms);
  ++rep.attempted;

  // Exploration spans the first calls; time only once every cell decided.
  int warmup = 0;
  while (!autotuner_settled() && warmup < 16) {
    input = model->make_input(args.seed, stream++);
    run = engine.run_network(net, input, weights);
    ++warmup;
    ++rep.attempted;
  }
  rep.check(autotuner_settled(), "autotuner decided every cell before timing");
  rep.info("warmup_requests", std::to_string(warmup));

  // Requests 0..kFixed-1 always run, so the modelled cycles are a pure
  // function of the seed, whatever the host speed.
  constexpr std::size_t kFixed = 8;
  const std::size_t reference_index = args.seed % kFixed;
  std::vector<double> lat;
  std::vector<double> cycles;
  std::vector<double> traced_total;
  std::vector<std::vector<double>> traced_layer_ms;
  std::vector<double> traced_pool_ms;
  bool walk_identical = true;
  std::pair<nn::Tensor, sim::FunctionalNetworkRun> reference;
  sim::FunctionalNetworkRun last;
  const auto loop_start = Clock::now();
  const auto loop_end =
      loop_start + std::chrono::duration<double>(args.seconds);
  while (lat.size() < kFixed || Clock::now() < loop_end) {
    input = model->make_input(args.seed, stream++);
    t0 = Clock::now();
    run = engine.run_network(net, input, weights);
    lat.push_back(ms_since(t0));
    ++rep.attempted;
    if (lat.size() <= kFixed) cycles.push_back(static_cast<double>(run.total_cycles));
    if (lat.size() == reference_index + 1) reference = {input, run};
    if (args.trace) {
      // Alternate: the untraced call above, then the same input layer by
      // layer; the two must agree byte for byte.
      const auto tw = Clock::now();
      TracedWalk w = traced_walk(engine, net, input, weights);
      traced_total.push_back(ms_since(tw));
      walk_identical = walk_identical && same_run(w.run, run);
      traced_layer_ms.push_back(std::move(w.layer_ms));
      traced_pool_ms.push_back(w.pool_ms);
    }
    last = std::move(run);
  }
  const double loop_s = ms_since(loop_start) / 1000.0;
  const auto t_ref = Clock::now();
  rep.check(matches_reference(net, reference.first, weights, reference.second,
                              engine.options().relu),
            "sampled request matches nn:: reference pipeline");
  rep.info("reference_check_s", fmt("%.2f", ms_since(t_ref) / 1000.0));
  if (args.trace) rep.check(walk_identical, "traced layer walk == run_network (bytes, cycles)");

  const double p50 = median(lat);
  const std::size_t n = lat.size();
  const auto within = std::count_if(lat.begin(), lat.end(),
                                    [&](double v) { return v <= spec.limit_ms; });
  rep.set("latency_p50_ms", p50);
  rep.set("latency_tail_ms", quantile(lat, spec.tail_q));
  rep.set("img_per_s", static_cast<double>(n) / loop_s);
  rep.set("goodput_share", static_cast<double>(within) / static_cast<double>(n));
  rep.set("peak_rss_mb", peak_rss_mb());
  rep.set("modelled_mcycles_per_img",
          std::accumulate(cycles.begin(), cycles.end(), 0.0) /
              static_cast<double>(cycles.size()) / 1e6);
  rep.info("warm_requests", std::to_string(n));
  rep.info("latency_tail", "p" + fmt("%.0f", spec.tail_q * 100) + " of " +
                               std::to_string(n) + " warm requests");
  record_autotuner(rep, last);

  if (args.trace) {
    rep.set("sim.functional.first_call_overhead_ms", first_ms - p50);
    std::vector<const nn::Layer*> weighted;
    for (const nn::Layer& l : net.layers()) {
      if (l.has_weights()) weighted.push_back(&l);
    }
    double conv_ms = 0;
    double fc_ms = 0;
    std::printf("\n%-8s %9s %-10s %12s %8s %8s   (%s, median of %zu traced requests)\n",
                "layer", "ms", "backend", "cycles", "GMAC/s", "mean Pa",
                spec.network.c_str(), traced_layer_ms.size());
    for (std::size_t li = 0; li < last.layers.size(); ++li) {
      std::vector<double> v;
      for (const auto& r : traced_layer_ms) v.push_back(r[li]);
      const double ms = median(v);
      const auto& lr = last.layers[li];
      const nn::Layer* layer = weighted[li];
      (layer->kind == nn::LayerKind::kFullyConnected ? fc_ms : conv_ms) += ms;
      rep.set("sim.functional." + spec.network + "." + lr.name + ".ms", ms);
      std::printf("%-8s %9.2f %-10s %12llu %8.2f %8.2f\n", lr.name.c_str(), ms,
                  lr.backend.c_str(), static_cast<unsigned long long>(lr.cycles),
                  static_cast<double>(layer->macs()) / ms / 1e6,
                  lr.mean_streamed_precision);
    }
    const double pool_ms = median(traced_pool_ms);
    const double sum_ms = conv_ms + fc_ms + pool_ms;
    std::printf("%-8s %9.2f\n\n", "pools", pool_ms);
    rep.set("sim.functional.conv_ms", conv_ms);
    rep.set("sim.functional.fc_ms", fc_ms);
    rep.set("nn.pool_ms", pool_ms);
    const double traced_p50 = median(traced_total);
    rep.set("trace.overhead_pct", 100.0 * (traced_p50 - p50) / p50);
    rep.info("layer_sum_vs_untraced_p50",
             fmt("%.2f ms / ", sum_ms) + fmt("%.2f ms", p50) +
                 fmt(" = %.3f", sum_ms / p50));
  }
  return 0;
}

// ---- Serving workload ----------------------------------------------------------

constexpr const char* kServeModel = "alexnet";
constexpr std::size_t kServeInFlight = 4;  ///< closed-loop concurrency
constexpr double kServeLimitMs = 5000;      ///< goodput latency limit
constexpr double kServeTailQ = 0.75;

/// The batched kernels one layer at a time (run_conv_batch / run_fc_batch),
/// timed per layer.
std::vector<double> traced_batch_walk(sim::FunctionalLoomEngine& engine,
                                      const serve::Model& model,
                                      std::vector<nn::Tensor> current,
                                      std::vector<nn::Tensor>& outputs) {
  std::vector<double> ms;
  std::size_t wi = 0;
  for (std::size_t i = 0; i < model.net.size(); ++i) {
    const nn::Layer& layer = model.net.layer(i);
    if (layer.kind == nn::LayerKind::kPool) {
      for (nn::Tensor& t : current) t = nn::pool_forward(t, layer);
      continue;
    }
    const auto t0 = Clock::now();
    sim::FunctionalBatchLayerRun lr =
        layer.kind == nn::LayerKind::kConv
            ? engine.run_conv_batch(layer, current, model.weights[wi],
                                    consumer_out_bits(model.net, i))
            : engine.run_fc_batch(layer, current, model.weights[wi],
                                  consumer_out_bits(model.net, i));
    ms.push_back(ms_since(t0));
    ++wi;
    current = std::move(lr.outputs);
  }
  outputs = std::move(current);
  return ms;
}

int run_serve(const Args& args, Report& rep) {
  if (!args.write_snapshot.empty()) {
    // Untimed preparation in its own process, so its memory does not count
    // towards the serving process's peak RSS.
    const auto t0 = Clock::now();
    serve::ModelRegistry registry;
    const auto model = materialize(registry, kServeModel, args.seed);
    const double materialize_ms = ms_since(t0);
    serve::save_snapshot(*model, args.write_snapshot);
    std::printf("{\"materialize_ms\": %.17g}\n", materialize_ms);
    return 0;
  }
  if (args.snapshot.empty()) throw ConfigError("alexnet-serve needs --snapshot");
  preroll(args.preroll_ms);

  serve::ServeOptions sopts;
  sopts.max_batch = 8;
  sopts.workers = 1;
  sopts.engine.jobs = nproc();

  // Set-up, three times: load the snapshot, register it, start the server;
  // then one cold request to that server.
  std::vector<double> setup_ms;
  std::vector<double> load_ms;
  std::vector<double> first_ms;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::InferenceServer> server;
  std::shared_ptr<const serve::Model> model;
  for (int k = 0; k < 3; ++k) {
    server.reset();
    registry = std::make_unique<serve::ModelRegistry>();
    const auto t0 = Clock::now();
    const auto loaded = serve::load_snapshot(args.snapshot);
    load_ms.push_back(ms_since(t0));
    model = registry->add(serve::Model(*loaded));
    server = std::make_unique<serve::InferenceServer>(*registry, sopts);
    setup_ms.push_back(ms_since(t0));
    const auto t1 = Clock::now();
    server->submit(model, model->make_input(args.seed, 1000 + k)).get();
    first_ms.push_back(ms_since(t1));
  }
  rep.set("setup_s", median(setup_ms) / 1000.0);
  rep.set("serve.snapshot.load_ms", median(load_ms));
  rep.set("first_request_ms", median(first_ms));

  // Closed loop from one generator (this thread): kInFlight requests are
  // outstanding at all times, so the worker forms batches of up to kInFlight
  // and runs run_network_batch at that size. Requests 0..15 always run, so
  // the two sampled for the output check exist whatever the host speed.
  struct Outstanding {
    std::size_t index;
    Clock::time_point sent;
    std::future<serve::InferenceResult> fut;
  };
  constexpr std::size_t kFixed = 16;
  const std::size_t sample_a = args.seed % (kFixed / 2);
  const std::size_t sample_b = kFixed / 2 + (args.seed / 8) % (kFixed / 2);
  std::deque<Outstanding> inflight;
  std::vector<double> submit_us;
  std::size_t next = 0;
  // Inputs for requests next, next+1, ... are made while a batch runs, so
  // the refills after a batch reach the queue back to back and the worker
  // can batch them.
  std::deque<nn::Tensor> ready;
  const auto top_up = [&] {
    while (ready.size() < kServeInFlight) {
      ready.push_back(model->make_input(args.seed, next + ready.size()));
    }
  };
  const auto send = [&] {
    if (ready.empty()) top_up();
    const auto ts = Clock::now();
    std::future<serve::InferenceResult> fut;
    try {
      fut = server->submit(model, std::move(ready.front()));
    } catch (...) {  // a refused submit is a failed request
      std::promise<serve::InferenceResult> refused;
      refused.set_exception(std::current_exception());
      fut = refused.get_future();
    }
    submit_us.push_back(ms_since(ts) * 1000.0);
    inflight.push_back({next++, ts, std::move(fut)});
    ready.pop_front();
  };

  std::vector<double> lat;
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms_per_img;
  std::map<std::size_t, nn::Tensor> sampled;
  std::size_t within = 0;
  std::size_t failed = 0;
  const auto loop_start = Clock::now();
  const auto loop_end = loop_start + std::chrono::duration<double>(args.seconds);
  for (std::size_t k = 0; k < kServeInFlight; ++k) send();
  top_up();
  while (!inflight.empty()) {
    Outstanding o = std::move(inflight.front());
    inflight.pop_front();
    try {
      serve::InferenceResult r = o.fut.get();
      const double latency = ms_since(o.sent);
      lat.push_back(latency);
      within += latency <= kServeLimitMs ? 1 : 0;
      queue_wait_ms.push_back(std::chrono::duration<double, std::milli>(r.queue_wait).count());
      run_ms_per_img.push_back(
          std::chrono::duration<double, std::milli>(r.run_time).count() / r.batch_size);
      if (o.index == sample_a || o.index == sample_b) sampled[o.index] = std::move(r.output);
    } catch (const std::exception& e) {
      ++failed;
      std::printf("request %zu failed: %s\n", o.index, e.what());
    }
    if (Clock::now() < loop_end || next < kFixed) send();
    if (inflight.empty() ||
        inflight.front().fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      top_up();
    }
  }
  const auto loop_done = Clock::now();
  server->stop();
  const serve::ServerStats stats = server->stats();
  rep.attempted = next;
  rep.failed = failed;

  // Solo reference runs of the sampled inputs.
  sim::FunctionalLoomEngine solo(sim::FunctionalOptions{.jobs = nproc()});
  std::vector<double> cycles;
  bool served_ok = sampled.size() == 2;
  for (const auto& [i, out] : sampled) {
    const auto run = solo.run_network(model->net, model->make_input(args.seed, i),
                                      model->weights);
    served_ok = served_ok && run.output == out;
    cycles.push_back(static_cast<double>(run.total_cycles));
  }
  rep.check(served_ok, "sampled served outputs == solo run_network");
  rep.check(failed == 0, "no request failed, was shed or timed out");

  rep.set("latency_p50_ms", median(lat));
  rep.set("latency_tail_ms", quantile(lat, kServeTailQ));
  rep.set("img_per_s", static_cast<double>(lat.size()) /
                           (ms_between(loop_start, loop_done) / 1000.0));
  rep.set("goodput_share", static_cast<double>(within) / static_cast<double>(next));
  rep.set("peak_rss_mb", peak_rss_mb());
  rep.set("modelled_mcycles_per_img",
          std::accumulate(cycles.begin(), cycles.end(), 0.0) /
              static_cast<double>(std::max<std::size_t>(1, cycles.size())) / 1e6);
  rep.info("load", "closed loop, " + std::to_string(kServeInFlight) +
                       " requests in flight, max_batch 8, 1 worker");
  rep.info("latency_tail", "p" + fmt("%.0f", kServeTailQ * 100) + " of " +
                               std::to_string(lat.size()) + " requests");
  std::string backends;
  for (const auto& [b, count] : stats.backend_layer_runs) {
    backends += b + "=" + std::to_string(count) + " ";
  }
  rep.info("backend_layer_runs", backends);

  rep.set("serve.run_ms_per_img", median(run_ms_per_img));
  rep.set("serve.mean_batch", stats.mean_batch());
  rep.set("serve.submit_us_p50", median(submit_us));
  rep.set("serve.queue_wait_p50_ms", median(queue_wait_ms));
  rep.set("serve.retries", static_cast<double>(stats.retries));
  rep.set("serve.fallbacks", static_cast<double>(stats.fallbacks));
  rep.set("serve.shed", static_cast<double>(stats.shed));
  rep.set("serve.rejected", static_cast<double>(stats.rejected));
  rep.set("serve.timed_out", static_cast<double>(stats.timed_out));
  rep.set("serve.failed", static_cast<double>(stats.failed));

  if (args.trace) {
    // Batch-4 kernels layer by layer on four of the served inputs; the
    // second pass is timed (the first pays lazy allocation).
    std::vector<nn::Tensor> batch;
    for (std::size_t i = 0; i < 4; ++i) batch.push_back(model->make_input(args.seed, i));
    sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = nproc()});
    std::vector<nn::Tensor> outs;
    (void)traced_batch_walk(engine, *model, batch, outs);
    const std::vector<double> ms = traced_batch_walk(engine, *model, batch, outs);
    const auto solo_run = solo.run_network(model->net, batch[3], model->weights);
    rep.check(outs.size() == 4 && outs[3] == solo_run.output,
              "batch-4 layer walk == solo run_network");
    for (std::size_t li = 0; li < ms.size(); ++li) {
      rep.set(std::string("sim.batch4.alexnet.") + kAlexnetLayers[li] + ".ms_per_img",
              ms[li] / 4.0);
    }
  }
  return 0;
}

// ---- Paper sweep ------------------------------------------------------------------

struct Lm1b {
  double all = 0, conv = 0, fc = 0;
};

std::string lm1b_arch(const core::ExperimentRunner& runner) {
  for (const std::string& name : runner.roster_names()) {
    if (name.rfind("LM1b", 0) == 0) return name;
  }
  throw ConfigError("roster has no LM1b entry");
}

/// LM1b speedup geomeans over the networks in `nets` order, so the value is
/// bit-exact whatever order the comparison was assembled in.
Lm1b lm1b_geomeans(const sim::Comparison& cmp, const std::string& arch,
                   const std::vector<std::string>& nets) {
  const auto geo = [&](sim::RunResult::Filter f) {
    std::vector<double> perfs;
    for (const std::string& net : nets) {
      for (const auto& e : cmp.entries(f)) {
        if (e.network == net && e.arch == arch) perfs.push_back(e.perf);
      }
    }
    return geomean(perfs);
  };
  using F = sim::RunResult::Filter;
  return {geo(F::kAll), geo(F::kConv), geo(F::kFc)};
}

const sim::ComparisonEntry* entry_for(const sim::Comparison& cmp,
                                      const std::string& network,
                                      const std::string& arch) {
  for (const auto& e : cmp.entries(sim::RunResult::Filter::kAll)) {
    if (e.network == network && e.arch == arch) return &e;
  }
  return nullptr;
}

/// The simulator ExperimentRunner runs for `key` (one of kSweepArchs),
/// built through the public factories with the runner's configuration.
std::unique_ptr<sim::Simulator> make_arch(const std::string& key,
                                          const core::RunnerOptions& o) {
  sim::SimOptions so;
  so.model_offchip = o.model_offchip;
  if (key == "dpnn") {
    arch::DpnnConfig c;
    c.equiv_macs = o.equiv_macs;
    return sim::make_dpnn_simulator(c, so);
  }
  if (key == "stripes") {
    arch::StripesConfig c;
    c.equiv_macs = o.equiv_macs;
    c.dynamic_act_precision = false;
    return sim::make_stripes_simulator(c, so);
  }
  if (key == "laconic") {
    arch::LaconicConfig c;
    c.equiv_macs = o.equiv_macs;
    return sim::make_laconic_simulator(c, so);
  }
  arch::LoomConfig c;
  c.equiv_macs = o.equiv_macs;
  c.bits_per_cycle = key[2] - '0';
  return sim::make_loom_simulator(c, so);
}

constexpr double kSweepTailQ = 0.80;
constexpr double kSweepLimitMs = 3000;

int run_sweep(const Args& args, Report& rep) {
  preroll(args.preroll_ms);
  core::RunnerOptions opts;  // E=128, constrained memory, runner seed 1
  opts.jobs = nproc();
  // The synthetic workloads are the paper's fixed ones, so the geomeans can
  // be pinned; the seed rotates the order the cold sweep hands the networks
  // over in, which must not change a single result.
  const std::vector<std::string>& nets = nn::zoo::paper_networks();
  std::vector<std::string> cold_order = nets;
  std::rotate(cold_order.begin(),
              cold_order.begin() + static_cast<long>(args.seed % nets.size()),
              cold_order.end());

  // Set-up: the cold six-network sweep, which fills the process-wide
  // calibration memo every later runner reuses.
  const auto t0 = Clock::now();
  core::ExperimentRunner cold_runner(opts);
  const sim::Comparison cold = cold_runner.compare(cold_order);
  const double sweep_ms = ms_since(t0);
  const std::string lm1b = lm1b_arch(cold_runner);
  const Lm1b g = lm1b_geomeans(cold, lm1b, nets);
  rep.set("setup_s", sweep_ms / 1000.0);
  rep.info("sweep_s", fmt("%.3f", sweep_ms / 1000.0));
  rep.info("lm1b_geomean_all", fmt("%.17g", g.all));
  rep.info("lm1b_geomean_conv", fmt("%.17g", g.conv));
  rep.info("lm1b_geomean_fc", fmt("%.17g", g.fc));
  double cycles = 0;
  for (const std::string& net : nets) {
    cycles += static_cast<double>(entry_for(cold, net, lm1b)->result.cycles());
  }
  rep.set("modelled_mcycles_per_img", cycles / static_cast<double>(nets.size()) / 1e6);

  // Requests: one network's compare() on a fresh runner, whole sweeps only,
  // so every run weighs the six networks equally. Each sweep starts with the
  // largest, VGG-19 (reverse paper order), whose time varies least between
  // runs; first_request_ms is the median of those first requests. The cold
  // sweep counts towards the measured time; at least three warm sweeps
  // follow it.
  std::vector<double> lat;
  bool deterministic = true;
  double busy_ms = 0;
  int sweeps = 0;
  do {
    ++sweeps;
    for (auto net = nets.rbegin(); net != nets.rend(); ++net) {
      const auto tr = Clock::now();
      core::ExperimentRunner runner(opts);
      const sim::Comparison one = runner.compare({*net});
      lat.push_back(ms_since(tr));
      busy_ms += lat.back();
      ++rep.attempted;
      const auto* a = entry_for(one, *net, lm1b);
      const auto* b = entry_for(cold, *net, lm1b);
      const bool same = a && b && a->perf == b->perf &&
                        a->result.cycles() == b->result.cycles();
      deterministic = deterministic && same;
      rep.failed += same ? 0 : 1;
    }
  } while (sweeps < 3 || ms_since(t0) < args.seconds * 1000.0);
  rep.check(deterministic, "per-network compare == cold sweep (LM1b perf, cycles)");

  const std::size_t n = lat.size();
  std::vector<double> sweep_firsts;
  for (std::size_t i = 0; i < n; i += nets.size()) sweep_firsts.push_back(lat[i]);
  rep.set("first_request_ms", median(sweep_firsts));
  rep.set("latency_p50_ms", median(lat));
  rep.set("latency_tail_ms", quantile(lat, kSweepTailQ));
  rep.set("img_per_s", static_cast<double>(n) / (busy_ms / 1000.0));
  rep.set("goodput_share",
          static_cast<double>(std::count_if(lat.begin(), lat.end(),
                                            [](double v) { return v <= kSweepLimitMs; })) /
              static_cast<double>(n));
  rep.set("peak_rss_mb", peak_rss_mb());
  rep.info("latency_tail", "p" + fmt("%.0f", kSweepTailQ * 100) + " of " +
                               std::to_string(n) + " per-network requests");

  if (args.trace) {
    // The sweep's public calls one at a time, in three passes over each
    // network's workload: the first constrained pass also pays the
    // workload's lazy tensor fill, the second times the simulators alone and
    // the third repeats them unconstrained (Table 2's set-up).
    core::RunnerOptions unconstrained = opts;
    unconstrained.model_offchip = false;
    double first_pass_s = 0;
    double offchip_s = 0;
    std::map<std::string, double> run_s;
    bool walk_ok = true;
    sim::Comparison table2;
    for (const std::string& net : nets) {
      sim::WorkloadOptions wo;
      wo.seed = opts.seed;
      const auto wl = sim::prepare_network(net, opts.target, wo);
      std::vector<sim::RunResult> runs;
      const auto pass = [&](const core::RunnerOptions& o) {
        runs.clear();
        std::map<std::string, double> secs;
        for (const char* key : kSweepArchs) {
          const auto ts = Clock::now();
          runs.push_back(make_arch(key, o)->run(*wl));
          secs[key] = ms_since(ts) / 1000.0;
        }
        return secs;
      };
      const auto first = pass(opts);
      const auto constrained = pass(opts);
      const sim::RunResult& lm1b_run = runs[2];  // kSweepArchs order
      walk_ok = walk_ok && lm1b_run.cycles() == entry_for(cold, net, lm1b)->result.cycles();
      const auto free = pass(unconstrained);
      for (const char* key : kSweepArchs) {
        first_pass_s += first.at(key);
        run_s[key] += constrained.at(key);
        offchip_s += constrained.at(key) - free.at(key);
      }
      table2.add_network_results(net, runs[0], {runs.begin() + 1, runs.end()});
    }
    rep.check(walk_ok, "traced simulator walk == compare() LM1b cycles");
    double sims_s = 0;
    for (const auto& [key, secs] : run_s) {
      rep.set("sim." + key + ".run_s", secs);
      sims_s += secs;
    }
    rep.set("sim.workload.fill_s", first_pass_s - sims_s);
    rep.set("mem.offchip_s", offchip_s);
    const Lm1b t2 = lm1b_geomeans(table2, lm1b, nets);
    rep.info("table2_lm1b_conv", fmt("%.17g", t2.conv));
    rep.info("table2_lm1b_fc", fmt("%.17g", t2.fc));
    std::printf("Table 2 (unconstrained) LM1b geomeans: conv %.4f (paper 3.25), "
                "fc %.4f (paper 1.74)\n", t2.conv, t2.fc);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Report rep(args.trace);
    rep.info("simd", common::simd_level_name(common::simd_level()));
    rep.info("nproc", std::to_string(nproc()));
    int rc = 0;
    if (args.workload == "alexnet-solo") {
      rc = run_solo(args, {"alexnet", 0.75, 1300.0}, rep);
    } else if (args.workload == "nin-solo") {
      rc = run_solo(args, {"nin", 0.75, 1500.0}, rep);
    } else if (args.workload == "alexnet-serve") {
      rc = run_serve(args, rep);
    } else if (args.workload == "paper-sweep") {
      rc = run_sweep(args, rep);
    } else {
      throw ConfigError("unknown workload '" + args.workload + "'");
    }
    if (!args.setup_only && args.write_snapshot.empty()) rep.print_json();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loom_perfbench: %s\n", e.what());
    return 2;
  }
}
