// Cross-backend differential property harness: every backend in the
// registry — present and future — is held to byte-identity against the
// scalar arch::Sip oracle and the nn::reference bit-parallel golden model
// over randomized geometry (pad/stride/groups/lane-tail/cols-tail) ×
// Pa,Pw ∈ {1..16} × batch 1–9. A new backend gets this coverage by
// registering, not by writing a new test file: the sweeps below enumerate
// BackendRegistry and skip nothing that claims to support the grid.
//
// Stats are part of the contract: every fast backend must report the same
// ConvStats for the same batched run (the scalar oracle joins that
// comparison at batch == 1; for larger batches its N-solo chunk structure
// legitimately differs from the concatenated-window accounting, which
// tests/test_madd_engine.cpp pins against the oracle on stacked inputs).
//
// Failures print the iteration seed: rerun with
//   LOOM_BACKEND_PROP_SEED=<seed> ./test_backend_differential
// to replay just that case (iteration count drops to 1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/reference.hpp"
#include "sim/backend.hpp"
#include "sim/functional.hpp"
#include "sim/lut_engine.hpp"

namespace loom::sim {
namespace {

struct Case {
  nn::Layer layer;
  std::vector<nn::Tensor> inputs;  // one per request
  nn::Tensor weights;
};

/// Uniform signed/unsigned values that fit the given streamed precision
/// exactly, with a `zero_run` chance of zeroing stretches (exercises dead
/// LUT groups, zero-precision detection groups and empty bit-planes).
nn::Tensor random_tensor(const nn::Shape& shape, int precision, bool is_signed,
                         SequentialRng& base, std::uint64_t stream,
                         double zero_run_p) {
  nn::Tensor t(shape);
  CounterRng rng(base.next_bits(), stream);
  bool zeroing = false;
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const std::uint64_t u = rng.bits(static_cast<std::uint64_t>(i));
    if ((u & 0xffu) < static_cast<std::uint64_t>(zero_run_p * 256.0)) {
      zeroing = !zeroing;
    }
    if (zeroing) {
      t.set_flat(i, 0);
      continue;
    }
    if (is_signed) {
      const auto span = std::int64_t{1} << precision;  // [-2^(p-1), 2^(p-1))
      t.set_flat(i, static_cast<Value>(static_cast<std::int64_t>(u % span) -
                                       (span >> 1)));
    } else {
      // Conv activations are unsigned bit patterns, but Tensor stores int16:
      // keep bit 15 clear so the signed reference model and the hardware's
      // unsigned streams agree (post-ReLU activations are non-negative, so
      // a 16-bit profile still never uses the top bit for magnitude).
      const int bits = std::min(precision, 15);
      t.set_flat(i, static_cast<Value>(u & ((1u << bits) - 1)));
    }
  }
  return t;
}

Case random_conv_case(std::uint64_t seed) {
  SequentialRng rng(seed, 1);
  const int groups = 1 + static_cast<int>(rng.next_below(3));
  const auto cig = 1 + static_cast<std::int64_t>(rng.next_below(4));
  const auto cog = 1 + static_cast<std::int64_t>(rng.next_below(5));
  const int in_h = 3 + static_cast<int>(rng.next_below(10));
  const int in_w = 3 + static_cast<int>(rng.next_below(10));
  const int kernel = 1 + static_cast<int>(rng.next_below(
                             std::min(4, std::min(in_h, in_w))));
  const int stride = 1 + static_cast<int>(rng.next_below(3));
  const int pad = static_cast<int>(rng.next_below(3));
  const int pa = 1 + static_cast<int>(rng.next_below(16));
  const int pw = 1 + static_cast<int>(rng.next_below(16));
  const int batch = 1 + static_cast<int>(rng.next_below(9));

  Case c{nn::make_conv("diff", nn::Shape3{cig * groups, in_h, in_w},
                       static_cast<int>(cog * groups), kernel, stride, pad,
                       groups),
         {}, nn::Tensor{}};
  c.layer.act_precision = pa;
  c.layer.weight_precision = pw;
  for (int r = 0; r < batch; ++r) {
    nn::Tensor t = random_tensor(nn::Shape{c.layer.in.c, c.layer.in.h,
                                           c.layer.in.w},
                                 pa, /*is_signed=*/false, rng, 100 + r, 0.1);
    if (rng.next_below(8) == 0) t = nn::Tensor(t.shape());  // all-zero request
    c.inputs.push_back(std::move(t));
  }
  c.weights = random_tensor(nn::Shape{c.layer.weight_count()}, pw,
                            /*is_signed=*/true, rng, 999, 0.05);
  return c;
}

Case random_fc_case(std::uint64_t seed) {
  SequentialRng rng(seed, 2);
  const auto ci = 1 + static_cast<std::int64_t>(rng.next_below(96));
  const int co = 1 + static_cast<int>(rng.next_below(80));
  const int pw = 1 + static_cast<int>(rng.next_below(16));
  const int batch = 1 + static_cast<int>(rng.next_below(9));

  Case c{nn::make_fc("diff_fc", nn::Shape3{ci, 1, 1}, co), {}, nn::Tensor{}};
  c.layer.weight_precision = pw;
  for (int r = 0; r < batch; ++r) {
    // FC activations stream all 16 signed bits.
    c.inputs.push_back(random_tensor(nn::Shape{ci}, kBasePrecision,
                                     /*is_signed=*/true, rng, 200 + r, 0.1));
  }
  c.weights = random_tensor(nn::Shape{c.layer.weight_count()}, pw,
                            /*is_signed=*/true, rng, 998, 0.05);
  return c;
}

/// Random grid, covering lane tails (lanes ∤ inner) and cols tails
/// (cols ∤ windows) alongside the parallel fan-out.
BackendContext random_ctx(std::uint64_t seed) {
  SequentialRng rng(seed, 3);
  BackendContext ctx;
  ctx.rows = 1 + static_cast<int>(rng.next_below(12));
  ctx.cols = 1 + static_cast<int>(rng.next_below(20));
  ctx.lanes = 1 + static_cast<int>(rng.next_below(16));
  ctx.jobs = 1 + static_cast<int>(rng.next_below(3));
  return ctx;
}

bool random_dynamic(std::uint64_t seed) {
  SequentialRng rng(seed, 4);
  return rng.next_below(2) == 0;
}

/// Iteration seeds: LOOM_BACKEND_PROP_SEED replays one failing case.
std::vector<std::uint64_t> iteration_seeds(std::uint64_t base, int count) {
  if (const char* env = std::getenv("LOOM_BACKEND_PROP_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

std::vector<nn::WideTensor> make_wides(const nn::Shape& shape, std::size_t n) {
  std::vector<nn::WideTensor> w;
  w.reserve(n);
  for (std::size_t r = 0; r < n; ++r) w.emplace_back(shape);
  return w;
}

void expect_stats_eq(const ConvStats& a, const ConvStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.chunks, b.chunks);
  // streamed_pa is a sum of integers < 2^53, so the double is exact and
  // order-independent: bitwise equality is the contract, not a tolerance.
  EXPECT_EQ(a.streamed_pa, b.streamed_pa);
  EXPECT_EQ(a.act_bits_streamed, b.act_bits_streamed);
  EXPECT_EQ(a.weight_bits_streamed, b.weight_bits_streamed);
  EXPECT_EQ(a.detect_invocations, b.detect_invocations);
  EXPECT_EQ(a.detect_values, b.detect_values);
}

// ---- Conv: every registered backend vs scalar oracle vs reference ---------

TEST(BackendDifferential, ConvAllRegisteredBackendsByteIdentical) {
  auto& reg = BackendRegistry::instance();
  for (const std::uint64_t seed : iteration_seeds(0xD1FF, 30)) {
    SCOPED_TRACE("LOOM_BACKEND_PROP_SEED=" + std::to_string(seed));
    const Case c = random_conv_case(seed);
    const BackendContext ctx = random_ctx(seed);
    const SliceSpec spec{
        .act_precision = c.layer.act_precision,
        .weight_precision = c.layer.weight_precision,
        .act_signed = false,
        .dynamic = random_dynamic(seed)};
    const std::size_t batch = c.inputs.size();
    const nn::Shape wide_shape{c.layer.out.c, c.layer.out.h, c.layer.out.w};

    // Scalar oracle, one request at a time: the ground truth every backend
    // (and the batching semantics itself) is pinned against.
    const BackendInfo* scalar_info = reg.find("scalar");
    ASSERT_NE(scalar_info, nullptr);
    auto scalar = scalar_info->make(ctx);
    std::vector<nn::WideTensor> oracle = make_wides(wide_shape, batch);
    std::vector<ConvStats> oracle_stats;
    for (std::size_t r = 0; r < batch; ++r) {
      const nn::Tensor* in = &c.inputs[r];
      nn::WideTensor* out = &oracle[r];
      oracle_stats.push_back(scalar->run_conv_batch(
          c.layer, std::span<const nn::Tensor* const>(&in, 1), c.weights, spec,
          std::span<nn::WideTensor* const>(&out, 1)));
      EXPECT_EQ(oracle[r], nn::conv_forward(c.inputs[r], c.weights, c.layer))
          << "oracle vs reference, request " << r;
    }

    bool have_parallel_stats = false;
    ConvStats parallel_stats;
    for (const std::string& name : reg.names()) {
      SCOPED_TRACE("backend " + name);
      const BackendInfo* info = reg.find(name);
      ASSERT_NE(info, nullptr);
      if (!info->supports(ctx)) continue;
      auto backend = info->make(ctx);

      std::vector<nn::WideTensor> wides = make_wides(wide_shape, batch);
      std::vector<const nn::Tensor*> in_ptrs;
      std::vector<nn::WideTensor*> wide_ptrs;
      for (std::size_t r = 0; r < batch; ++r) {
        in_ptrs.push_back(&c.inputs[r]);
        wide_ptrs.push_back(&wides[r]);
      }
      const ConvStats st =
          backend->run_conv_batch(c.layer, in_ptrs, c.weights, spec, wide_ptrs);
      for (std::size_t r = 0; r < batch; ++r) {
        EXPECT_EQ(wides[r], oracle[r]) << "request " << r;
      }
      if (name == "scalar") {
        // The scalar backend's own batch is N solo runs by definition.
        ConvStats sum;
        for (const auto& s : oracle_stats) {
          sum.cycles += s.cycles;
          sum.chunks += s.chunks;
          sum.streamed_pa += s.streamed_pa;
          sum.act_bits_streamed += s.act_bits_streamed;
          sum.weight_bits_streamed += s.weight_bits_streamed;
          sum.detect_invocations += s.detect_invocations;
          sum.detect_values += s.detect_values;
        }
        expect_stats_eq(st, sum);
        continue;
      }
      // Fast backends share the concatenated-window accounting:
      // all must agree with each other, and with the scalar oracle whenever
      // the batch is a single request (same chunk structure).
      if (!have_parallel_stats) {
        parallel_stats = st;
        have_parallel_stats = true;
      } else {
        expect_stats_eq(st, parallel_stats);
      }
      if (batch == 1) expect_stats_eq(st, oracle_stats[0]);
    }
    EXPECT_TRUE(have_parallel_stats);  // madd and lut accept 1..20 cols
  }
}

// ---- FC: every registered backend vs scalar oracle vs reference -----------

/// One FC request through a backend, as a batch of one.
void run_fc_solo(FunctionalBackend& backend, const nn::Layer& layer,
                 const nn::Tensor& input, const nn::Tensor& weights,
                 nn::WideTensor& wide) {
  const nn::Tensor* in_ptr = &input;
  nn::WideTensor* wide_ptr = &wide;
  backend.run_fc_batch(layer, std::span<const nn::Tensor* const>(&in_ptr, 1),
                       weights, layer.weight_precision,
                       std::span<nn::WideTensor* const>(&wide_ptr, 1));
}

TEST(BackendDifferential, FcAllRegisteredBackendsByteIdentical) {
  auto& reg = BackendRegistry::instance();
  for (const std::uint64_t seed : iteration_seeds(0xFCD1FF, 30)) {
    SCOPED_TRACE("LOOM_BACKEND_PROP_SEED=" + std::to_string(seed));
    const Case c = random_fc_case(seed);
    const BackendContext ctx = random_ctx(seed);
    const std::size_t batch = c.inputs.size();
    const nn::Shape wide_shape{c.layer.out.c, 1, 1};

    const BackendInfo* scalar_info = reg.find("scalar");
    ASSERT_NE(scalar_info, nullptr);
    auto scalar = scalar_info->make(ctx);
    std::vector<nn::WideTensor> oracle = make_wides(wide_shape, batch);
    for (std::size_t r = 0; r < batch; ++r) {
      run_fc_solo(*scalar, c.layer, c.inputs[r], c.weights, oracle[r]);
      EXPECT_EQ(oracle[r], nn::fc_forward(c.inputs[r], c.weights, c.layer))
          << "oracle vs reference, request " << r;
    }

    for (const std::string& name : reg.names()) {
      SCOPED_TRACE("backend " + name);
      const BackendInfo* info = reg.find(name);
      ASSERT_NE(info, nullptr);
      if (!info->supports(ctx)) continue;
      auto backend = info->make(ctx);

      // Batched entry point (covers the request-packing paths)...
      std::vector<nn::WideTensor> wides = make_wides(wide_shape, batch);
      std::vector<const nn::Tensor*> in_ptrs;
      std::vector<nn::WideTensor*> wide_ptrs;
      for (std::size_t r = 0; r < batch; ++r) {
        in_ptrs.push_back(&c.inputs[r]);
        wide_ptrs.push_back(&wides[r]);
      }
      backend->run_fc_batch(c.layer, in_ptrs, c.weights,
                            c.layer.weight_precision, wide_ptrs);
      for (std::size_t r = 0; r < batch; ++r) {
        EXPECT_EQ(wides[r], oracle[r]) << "batched request " << r;
      }
      // ...and a solo request, as a batch of one, on the first request.
      nn::WideTensor solo(wide_shape);
      run_fc_solo(*backend, c.layer, c.inputs[0], c.weights, solo);
      EXPECT_EQ(solo, oracle[0]);
    }
  }
}

// ---- FC with mostly dead input groups --------------------------------------

/// FC inputs where most 8-activation groups are all zero: live groups sit
/// every `period`-th group from offset `phase` (>= 1), so they never touch
/// and group 0 is dead; the last group (short, since ci % 8 != 0) is forced
/// dead too. The LUT walk gathers the live groups' slices out of a full
/// packed weight row, so its absolute offsets are what this pins.
Case sparse_fc_case(std::uint64_t seed) {
  constexpr std::int64_t kInner[] = {9, 45, 75, 203, 333, 1001};
  SequentialRng rng(seed, 5);
  const std::int64_t ci = kInner[rng.next_below(std::size(kInner))];
  const auto period = static_cast<std::int64_t>(2 + rng.next_below(4));
  const auto phase = 1 + static_cast<std::int64_t>(rng.next_below(
                             static_cast<std::uint64_t>(period - 1)));
  const int co = 1 + static_cast<int>(rng.next_below(80));
  const int pw = 1 + static_cast<int>(rng.next_below(16));
  const int batch = 1 + static_cast<int>(rng.next_below(4));
  const std::int64_t g8_count = (ci + 7) / 8;

  Case c{nn::make_fc("sparse_fc", nn::Shape3{ci, 1, 1}, co), {}, nn::Tensor{}};
  c.layer.weight_precision = pw;
  for (int r = 0; r < batch; ++r) {
    nn::Tensor t = random_tensor(nn::Shape{ci}, kBasePrecision,
                                 /*is_signed=*/true, rng, 300 + r, 0.0);
    for (std::int64_t g8 = 0; g8 < g8_count; ++g8) {
      const bool live = g8 % period == phase && g8 != g8_count - 1;
      for (std::int64_t i = g8 * 8; i < std::min(ci, g8 * 8 + 8); ++i) {
        if (!live) {
          t.set_flat(i, 0);
        } else if (t.flat(i) == 0) {
          t.set_flat(i, 1);  // keep the group live
        }
      }
    }
    c.inputs.push_back(std::move(t));
  }
  c.weights = random_tensor(nn::Shape{c.layer.weight_count()}, pw,
                            /*is_signed=*/true, rng, 997, 0.05);
  return c;
}

TEST(BackendDifferential, FcSparseInputsAllBackendsMatchReference) {
  auto& reg = BackendRegistry::instance();
  for (const std::uint64_t seed : iteration_seeds(0x5FA25E, 24)) {
    SCOPED_TRACE("LOOM_BACKEND_PROP_SEED=" + std::to_string(seed));
    const Case c = sparse_fc_case(seed);
    const BackendContext ctx = random_ctx(seed);
    const std::size_t batch = c.inputs.size();
    const nn::Shape wide_shape{c.layer.out.c, 1, 1};
    ASSERT_NE(c.layer.in.elements() % 8, 0);

    std::vector<nn::WideTensor> want;
    for (const nn::Tensor& in : c.inputs) {
      // At least half the 8-groups are dead, including the first and last.
      std::int64_t dead = 0;
      const std::int64_t g8_count = (in.elements() + 7) / 8;
      std::vector<bool> group_dead(static_cast<std::size_t>(g8_count), true);
      for (std::int64_t i = 0; i < in.elements(); ++i) {
        if (in.flat(i) != 0) group_dead[static_cast<std::size_t>(i / 8)] = false;
      }
      for (const bool d : group_dead) dead += d ? 1 : 0;
      ASSERT_GE(2 * dead, g8_count);
      ASSERT_TRUE(group_dead.front());
      ASSERT_TRUE(group_dead.back());
      want.push_back(nn::fc_forward(in, c.weights, c.layer));
    }

    for (const std::string& name : reg.names()) {
      SCOPED_TRACE("backend " + name);
      const BackendInfo* info = reg.find(name);
      ASSERT_NE(info, nullptr);
      if (!info->supports(ctx)) continue;
      auto backend = info->make(ctx);

      std::vector<nn::WideTensor> wides = make_wides(wide_shape, batch);
      std::vector<const nn::Tensor*> in_ptrs;
      std::vector<nn::WideTensor*> wide_ptrs;
      for (std::size_t r = 0; r < batch; ++r) {
        in_ptrs.push_back(&c.inputs[r]);
        wide_ptrs.push_back(&wides[r]);
      }
      backend->run_fc_batch(c.layer, in_ptrs, c.weights,
                            c.layer.weight_precision, wide_ptrs);
      for (std::size_t r = 0; r < batch; ++r) {
        EXPECT_EQ(wides[r], want[r]) << "batched request " << r;
      }
      nn::WideTensor solo(wide_shape);
      run_fc_solo(*backend, c.layer, c.inputs[0], c.weights, solo);
      EXPECT_EQ(solo, want[0]);
    }
  }
}

// ---- Registration is the coverage mechanism -------------------------------

// A backend registered by a test (or a future PR) is picked up by the same
// machinery the sweeps above use: the registry lists it, the autotuner sees
// it as a candidate, and resolve_backend_name() accepts it by name.
TEST(BackendRegistryTest, RegisteredBackendJoinsSweepAndResolution) {
  auto& reg = BackendRegistry::instance();
  const auto before = reg.names().size();
  reg.register_backend(BackendInfo{
      .name = "mirror-lut",
      .tunable = true,
      .supports = [](const BackendContext& ctx) {
        return LutEngine::supports({.rows = ctx.rows,
                                    .cols = ctx.cols,
                                    .lanes = ctx.lanes,
                                    .jobs = ctx.jobs});
      },
      .make = [](const BackendContext& ctx)
          -> std::unique_ptr<FunctionalBackend> {
        // A stand-in third-party kernel: LUT math under a new name. Being
        // correct, it survives the same differential checks as built-ins.
        class Mirror final : public FunctionalBackend {
         public:
          explicit Mirror(const BackendContext& c)
              : eng_({.rows = c.rows,
                      .cols = c.cols,
                      .lanes = c.lanes,
                      .jobs = c.jobs}) {}
          ConvStats run_conv_batch(
              const nn::Layer& l, std::span<const nn::Tensor* const> in,
              const nn::Tensor& w, const SliceSpec& s,
              std::span<nn::WideTensor* const> out) override {
            return eng_.run_conv_batch(l, in, w, s, out);
          }
          void run_fc_batch(const nn::Layer& l,
                            std::span<const nn::Tensor* const> in,
                            const nn::Tensor& w, int pw,
                            std::span<nn::WideTensor* const> out) override {
            eng_.run_fc_batch(l, in, w, pw, out);
          }

         private:
          LutEngine eng_;
        };
        return std::make_unique<Mirror>(ctx);
      }});
  EXPECT_EQ(reg.names().size(), before + 1);
  ASSERT_NE(reg.find("mirror-lut"), nullptr);

  const BackendContext ctx;  // default 16x16x16 grid
  const auto tunable = reg.tunable_names(ctx);
  EXPECT_NE(std::find(tunable.begin(), tunable.end(), "mirror-lut"),
            tunable.end());
  EXPECT_EQ(resolve_backend_name("mirror-lut", /*force_scalar=*/false, ctx),
            "mirror-lut");

  // It runs a real case byte-identically (one spot check here — the sweep
  // tests above now exercise it on every iteration of this binary).
  const Case c = random_conv_case(0x3A3A);
  FunctionalLoomEngine eng(
      FunctionalOptions{.jobs = 1, .backend = "mirror-lut"});
  EXPECT_EQ(eng.backend_name(), "mirror-lut");
  const FunctionalLayerRun run =
      eng.run_conv(c.layer, c.inputs[0], c.weights, kBasePrecision);
  EXPECT_EQ(run.backend, "mirror-lut");
  EXPECT_EQ(run.wide, nn::conv_forward(c.inputs[0], c.weights, c.layer));
}

// ---- Resolution precedence ------------------------------------------------

TEST(BackendResolution, PrecedenceAndFallbacks) {
  const BackendContext ok;                    // 16x16x16: everything packs
  BackendContext wide = ok;
  wide.cols = 80;                             // outside the fast envelope
  BackendContext deep = ok;
  deep.lanes = 40;                            // same, via the lane bound

  // force_scalar beats everything, explicit names included.
  EXPECT_EQ(resolve_backend_name("lut", true, ok), "scalar");
  // Explicit registered names resolve to themselves on a packable grid...
  EXPECT_EQ(resolve_backend_name("madd", false, ok), "madd");
  EXPECT_EQ(resolve_backend_name("lut", false, ok), "lut");
  EXPECT_EQ(resolve_backend_name("scalar", false, ok), "scalar");
  // ...and fall back to the scalar oracle on an unpackable one (the
  // historical cols>64 behavior).
  EXPECT_EQ(resolve_backend_name("madd", false, wide), "scalar");
  EXPECT_EQ(resolve_backend_name("lut", false, wide), "scalar");
  // "" defers to the environment, then "auto"; "auto" with no viable
  // candidate is the scalar oracle.
  EXPECT_EQ(resolve_backend_name("", false, ok), "auto");
  EXPECT_EQ(resolve_backend_name("auto", false, wide), "scalar");
  EXPECT_EQ(resolve_backend_name("auto", false, deep), "scalar");
  // Unknown names are a configuration error, not a silent fallback.
  EXPECT_THROW((void)resolve_backend_name("no-such-kernel", false, ok),
               ConfigError);

  // LOOM_FUNCTIONAL_BACKEND fills an empty request only.
  ASSERT_EQ(setenv("LOOM_FUNCTIONAL_BACKEND", "lut", 1), 0);
  EXPECT_EQ(resolve_backend_name("", false, ok), "lut");
  EXPECT_EQ(resolve_backend_name("madd", false, ok), "madd");
  ASSERT_EQ(unsetenv("LOOM_FUNCTIONAL_BACKEND"), 0);

  // Engine-level: the resolved name is observable, and unknown names throw
  // at construction.
  FunctionalLoomEngine lut_eng(FunctionalOptions{.jobs = 1, .backend = "lut"});
  EXPECT_EQ(lut_eng.backend_name(), "lut");
  FunctionalLoomEngine auto_eng(FunctionalOptions{.jobs = 1});
  EXPECT_EQ(auto_eng.backend_name(), "auto");
  EXPECT_THROW(FunctionalLoomEngine(FunctionalOptions{.backend = "bogus"}),
               ConfigError);
}

}  // namespace
}  // namespace loom::sim
