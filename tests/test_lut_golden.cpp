// Golden digests for the LUT backend on real zoo geometry, plus autotuner
// determinism. The digests pin the exact bytes (accumulators, requantized
// outputs, cycles, streamed-precision mean) the LUT kernels produce on
// profiled AlexNet and NiN layers — any change to the table build, the
// slice decomposition, the dead-group skip or the stats replication shows
// up as a digest break here before it can drift. The LUT and multiply-add
// kernels must produce the *same* digest: byte-identity is the contract,
// the constant just anchors it to history.
//
// The pack_row tests pin every SIMD tier of the weight bit-plane packing
// to an independent per-group reference, byte for byte, and check that no
// tier writes past the packed row.
//
// The autotuner tests drive the real choose/record path with a
// deterministic timing override (and the LOOM_AUTOTUNE_PIN escape hatch)
// and assert that decisions are reproducible: pinned timings give the same
// winner on every engine, memoized winners survive engine re-construction
// and registry re-resolution, and a pin beats measurements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cpuid.hpp"
#include "common/rng.hpp"
#include "golden.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "sim/backend.hpp"
#include "sim/functional.hpp"
#include "sim/lut_engine.hpp"

namespace loom::sim {
namespace {

using golden::Fnv;

/// Find a weighted layer by name in a profiled zoo network.
nn::Layer zoo_layer(const std::string& network, const std::string& layer) {
  nn::Network net = nn::zoo::make(network);
  quant::apply_profile(net, quant::profile_for(network,
                                               quant::AccuracyTarget::k100));
  for (const nn::Layer& l : net.layers()) {
    if (l.name == layer) return l;
  }
  ADD_FAILURE() << network << " has no layer " << layer;
  return net.layers().front();
}

/// Deterministic synthetic data: unsigned profiled-precision activations
/// (top bit clear — post-ReLU), signed profiled-precision weights.
nn::Tensor synth(const nn::Shape& shape, int precision, bool is_signed,
                 std::uint64_t seed, std::uint64_t stream) {
  nn::Tensor t(shape);
  CounterRng rng(seed, stream);
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const std::uint64_t u = rng.bits(static_cast<std::uint64_t>(i));
    if (is_signed) {
      const auto span = std::int64_t{1} << precision;
      t.set_flat(i, static_cast<Value>(static_cast<std::int64_t>(u % span) -
                                       (span >> 1)));
    } else {
      const int bits = std::min(precision, 15);
      t.set_flat(i, static_cast<Value>(u & ((1u << bits) - 1)));
    }
  }
  return t;
}

std::uint64_t digest(const FunctionalLayerRun& run) {
  Fnv f;
  f.wide(run.wide);
  f.tensor(run.output);
  f.u64(run.cycles);
  f.i64(run.requant_shift);
  f.f64(run.mean_streamed_precision);
  return f.h;
}

struct GoldenCase {
  const char* network;
  const char* layer;
  std::uint64_t want;
};

// FNV-1a digests captured from the LUT backend when it was introduced;
// madd produces identical bytes (asserted below, not assumed).
constexpr GoldenCase kGoldenConv[] = {
    {"alexnet", "conv5", 0xe5724174fa286308ull},
    {"nin", "cccp3", 0x8b65031dd9e57c41ull},
    {"nin", "cccp6", 0x6245af9a014fec88ull},
};
constexpr std::uint64_t kGoldenAlexnetFc8 = 0x7b0e56705ac3b0e7ull;

TEST(LutGolden, ConvDigestsOnZooLayers) {
  for (const GoldenCase& gc : kGoldenConv) {
    SCOPED_TRACE(std::string(gc.network) + "/" + gc.layer);
    const nn::Layer layer = zoo_layer(gc.network, gc.layer);
    const nn::Tensor input =
        synth(nn::Shape{layer.in.c, layer.in.h, layer.in.w},
              layer.act_precision, false, 0x10CAu, 7);
    const nn::Tensor weights = synth(nn::Shape{layer.weight_count()},
                                     layer.weight_precision, true, 0x10CAu, 9);
    std::uint64_t first = 0;
    for (const char* backend : {"madd", "lut"}) {
      SCOPED_TRACE(backend);
      FunctionalLoomEngine eng(
          FunctionalOptions{.jobs = 1, .backend = backend});
      const FunctionalLayerRun run =
          eng.run_conv(layer, input, weights, kBasePrecision);
      EXPECT_EQ(run.backend, backend);
      const std::uint64_t d = digest(run);
      if (first == 0) first = d;
      EXPECT_EQ(d, first) << "backends disagree";
      EXPECT_EQ(d, gc.want) << std::hex << "digest 0x" << d;
    }
  }
}

TEST(LutGolden, FcDigestOnAlexnetFc8) {
  const nn::Layer layer = zoo_layer("alexnet", "fc8");
  const nn::Tensor input = synth(nn::Shape{layer.in.elements()},
                                 kBasePrecision, true, 0xFC8u, 7);
  const nn::Tensor weights = synth(nn::Shape{layer.weight_count()},
                                   layer.weight_precision, true, 0xFC8u, 9);
  std::uint64_t first = 0;
  for (const char* backend : {"madd", "lut"}) {
    SCOPED_TRACE(backend);
    FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1, .backend = backend});
    const FunctionalLayerRun run =
        eng.run_fc(layer, input, weights, kBasePrecision);
    EXPECT_EQ(run.backend, backend);
    const std::uint64_t d = digest(run);
    if (first == 0) first = d;
    EXPECT_EQ(d, first) << "backends disagree";
    EXPECT_EQ(d, kGoldenAlexnetFc8) << std::hex << "digest 0x" << d;
  }
}

// ---- Weight-row packing tiers ---------------------------------------------

/// Per-group reference for the [g8][b] slice layout, written from the
/// definition: bit j of byte (g8 * pw + b) is bit b of weight g8 * 8 + j.
std::vector<std::uint8_t> reference_pack(const std::vector<std::int16_t>& w,
                                         std::uint32_t w_mask, int pw) {
  const std::size_t groups = (w.size() + 7) / 8;
  std::vector<std::uint8_t> out(groups * static_cast<std::size_t>(pw), 0);
  for (std::size_t g8 = 0; g8 < groups; ++g8) {
    for (std::size_t j = 0; j < 8 && g8 * 8 + j < w.size(); ++j) {
      const std::uint32_t u = static_cast<std::uint16_t>(w[g8 * 8 + j]) & w_mask;
      for (int b = 0; b < pw; ++b) {
        if ((u >> b) & 1u) {
          out[g8 * static_cast<std::size_t>(pw) + static_cast<std::size_t>(b)] |=
              static_cast<std::uint8_t>(1u << j);
        }
      }
    }
  }
  return out;
}

TEST(LutPackRow, EveryTierMatchesPerGroupReference) {
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 1; n <= 40; ++n) lengths.push_back(n);
  // conv1's inner length (3 * 11 * 11) and fc6/fc7-sized rows.
  for (const std::int64_t n : {363, 4096, 9216}) lengths.push_back(n);
  constexpr std::int16_t kSpecials[] = {0, -1, 0x7FFF, INT16_MIN};
  constexpr std::uint8_t kCanary = 0xA5;
  constexpr std::size_t kSlack = 64;

  std::vector<common::SimdLevel> tiers;
  for (const auto tier : {common::SimdLevel::kScalar, common::SimdLevel::kAvx2,
                          common::SimdLevel::kAvx512}) {
    if (tier <= common::hardware_simd_level()) tiers.push_back(tier);
  }

  for (const std::int64_t n : lengths) {
    // Exactly-sized weights, so a sanitizer catches any tier reading past n.
    std::vector<std::int16_t> w(static_cast<std::size_t>(n));
    const CounterRng rng(0x9AC4u, static_cast<std::uint64_t>(n));
    for (std::size_t i = 0; i < w.size(); ++i) {
      const std::uint64_t u = rng.bits(i);
      w[i] = (u & 7u) < 3 ? kSpecials[(u >> 3) & 3u]
                          : static_cast<std::int16_t>(u >> 16);
    }
    for (int pw = 1; pw <= 16; ++pw) {
      const auto w_mask = static_cast<std::uint32_t>((1u << pw) - 1);
      const std::vector<std::uint8_t> want = reference_pack(w, w_mask, pw);
      ASSERT_EQ(want.size(), static_cast<std::size_t>((n + 7) / 8 * pw));
      for (const common::SimdLevel tier : tiers) {
        SCOPED_TRACE(std::string("tier=") + common::simd_level_name(tier) +
                     " n=" + std::to_string(n) + " pw=" + std::to_string(pw));
        std::vector<std::uint8_t> out(want.size() + kSlack, kCanary);
        lut_kernels::pack_row(tier, w.data(), n, w_mask, out.data(), pw);
        EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin()))
            << "packed bytes differ from the per-group reference";
        EXPECT_TRUE(std::all_of(out.begin() + static_cast<std::ptrdiff_t>(
                                                  want.size()),
                                out.end(),
                                [](std::uint8_t b) { return b == kCanary; }))
            << "wrote past ceil(n/8)*pw bytes";
      }
    }
  }
}

// ---- Autotuner determinism ------------------------------------------------

class AutotunerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("LOOM_AUTOTUNE_PIN");
    BackendAutotuner::instance().set_timing_override_for_test(nullptr);
    BackendAutotuner::instance().reset_for_test();
  }

  static nn::Layer small_layer() {
    nn::Layer l = nn::make_conv("tune", nn::Shape3{8, 6, 6}, 12, 3, 1, 1);
    l.act_precision = 7;
    l.weight_precision = 3;
    return l;
  }

  /// Run the layer once through a fresh "auto" engine; returns the kernel
  /// that actually ran it.
  static std::string run_auto(const nn::Layer& layer, const nn::Tensor& input,
                              const nn::Tensor& weights) {
    FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1, .backend = "auto"});
    EXPECT_EQ(eng.backend_name(), "auto");
    return eng.run_conv(layer, input, weights, kBasePrecision).backend;
  }
};

TEST_F(AutotunerTest, PinnedTimingsGiveSameChoiceEverywhere) {
  auto& tuner = BackendAutotuner::instance();
  tuner.reset_for_test();
  tuner.set_timing_override_for_test(
      [](const TuneKey&, const std::string& backend) -> std::uint64_t {
        if (backend == "lut") return 100;
        if (backend == "madd") return 200;
        return 300;
      });

  const nn::Layer layer = small_layer();
  const nn::Tensor input = synth(nn::Shape{layer.in.c, layer.in.h, layer.in.w},
                                 layer.act_precision, false, 1, 7);
  const nn::Tensor weights = synth(nn::Shape{layer.weight_count()},
                                   layer.weight_precision, true, 1, 9);

  // With the override, the very first choose() samples every candidate and
  // decides — so even the first run uses the winner.
  EXPECT_EQ(run_auto(layer, input, weights), "lut");
  // A fresh engine re-resolves against the registry and consults the same
  // memoized cell: same choice, no re-exploration.
  EXPECT_EQ(run_auto(layer, input, weights), "lut");

  std::vector<BackendAutotuner::Decision> ds = tuner.decisions();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].winner, "lut");
  EXPECT_FALSE(ds[0].pinned);
  // One sample per candidate on the roster.
  EXPECT_EQ(ds[0].samples.size(),
            BackendRegistry::instance()
                .tunable_names(BackendContext{.jobs = 1})
                .size());

  // Memoization beats new (different) timings: flipping the override does
  // not flip a decided cell...
  tuner.set_timing_override_for_test(
      [](const TuneKey&, const std::string& backend) -> std::uint64_t {
        return backend == "madd" ? 10 : 1000;
      });
  EXPECT_EQ(run_auto(layer, input, weights), "lut");
  // ...but after a reset the new timings decide afresh.
  tuner.reset_for_test();
  EXPECT_EQ(run_auto(layer, input, weights), "madd");
}

TEST_F(AutotunerTest, PinOverridesMeasurementsAndSurvivesReResolution) {
  ASSERT_EQ(setenv("LOOM_AUTOTUNE_PIN", "madd", 1), 0);
  auto& tuner = BackendAutotuner::instance();
  tuner.reset_for_test();  // re-reads the pin
  // Timings say "lut"; the pin must win anyway.
  tuner.set_timing_override_for_test(
      [](const TuneKey&, const std::string& backend) -> std::uint64_t {
        return backend == "lut" ? 1 : 1000;
      });

  const nn::Layer layer = small_layer();
  const nn::Tensor input = synth(nn::Shape{layer.in.c, layer.in.h, layer.in.w},
                                 layer.act_precision, false, 2, 7);
  const nn::Tensor weights = synth(nn::Shape{layer.weight_count()},
                                   layer.weight_precision, true, 2, 9);

  EXPECT_EQ(run_auto(layer, input, weights), "madd");
  EXPECT_EQ(run_auto(layer, input, weights), "madd");  // re-resolution

  std::vector<BackendAutotuner::Decision> ds = tuner.decisions();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].winner, "madd");
  EXPECT_TRUE(ds[0].pinned);
}

TEST_F(AutotunerTest, DistinctGeometriesGetDistinctCells) {
  auto& tuner = BackendAutotuner::instance();
  tuner.reset_for_test();
  tuner.set_timing_override_for_test(
      [](const TuneKey& key, const std::string& backend) -> std::uint64_t {
        // Make the winner depend on the geometry: lut for low Pw, madd
        // otherwise — the autotuner must keep them apart per cell.
        const bool low_pw = key.pw <= 4;
        if (backend == "lut") return low_pw ? 10 : 100;
        if (backend == "madd") return low_pw ? 100 : 10;
        return 200;
      });

  nn::Layer low = small_layer();  // pw = 3
  nn::Layer high = small_layer();
  high.weight_precision = 12;
  const nn::Tensor input = synth(nn::Shape{low.in.c, low.in.h, low.in.w},
                                 low.act_precision, false, 3, 7);
  const nn::Tensor w_low = synth(nn::Shape{low.weight_count()},
                                 low.weight_precision, true, 3, 9);
  const nn::Tensor w_high = synth(nn::Shape{high.weight_count()},
                                  high.weight_precision, true, 3, 11);

  EXPECT_EQ(run_auto(low, input, w_low), "lut");
  EXPECT_EQ(run_auto(high, input, w_high), "madd");
  EXPECT_EQ(tuner.decisions().size(), 2u);
}

}  // namespace
}  // namespace loom::sim
