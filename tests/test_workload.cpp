// Workload preparation: group-precision detection from real (overlapping)
// window data, Table 3 reproduction via calibrated weight streams, and the
// output-precision chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "nn/zoo/zoo.hpp"
#include "quant/group_precision.hpp"
#include "quant/profiles.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

quant::PrecisionProfile custom_profile() {
  quant::PrecisionProfile p;
  p.network = "custom";
  p.conv_act = {8, 6};
  p.conv_weight = 10;
  p.fc_weight = {9};
  p.dynamic_act_trim = 1.0;
  return p;
}

nn::Network custom_network() {
  nn::Network net("custom", nn::Shape3{8, 16, 16});
  net.add_conv("c1", 32, 3, 1, 1).precision_group = 0;
  net.add_conv("c2", 16, 3, 1, 1).precision_group = 1;
  net.add_fc("f1", 100);
  return net;
}

NetworkWorkload make_workload() {
  nn::Network net = custom_network();
  const auto profile = custom_profile();
  quant::apply_profile(net, profile);
  return NetworkWorkload(std::move(net), profile);
}

TEST(Workload, GroupPrecisionWithinProfileBound) {
  NetworkWorkload wl = make_workload();
  LayerWorkload& lw = wl.layer(0);
  const nn::Layer& layer = lw.layer();
  const std::int64_t wb_count = ceil_div(layer.windows(), 16);
  const std::int64_t ic_count = ceil_div(layer.inner_length(), 16);
  for (std::int64_t wb = 0; wb < wb_count; ++wb) {
    for (std::int64_t ic = 0; ic < ic_count; ++ic) {
      const int p = lw.act_group_precision(0, wb, ic, 16);
      EXPECT_GE(p, 1);
      EXPECT_LE(p, layer.act_precision);
    }
  }
}

TEST(Workload, GroupPrecisionDeterministicAcrossInstances) {
  NetworkWorkload a = make_workload();
  NetworkWorkload b = make_workload();
  for (std::int64_t wb = 0; wb < 4; ++wb) {
    EXPECT_EQ(a.layer(0).act_group_precision(0, wb, 0, 16),
              b.layer(0).act_group_precision(0, wb, 0, 16));
  }
}

TEST(Workload, MeanDetectedPrecisionNearTrimTarget) {
  NetworkWorkload wl = make_workload();
  LayerWorkload& lw = wl.layer(0);
  const nn::Layer& layer = lw.layer();
  const std::int64_t wb_count = ceil_div(layer.windows(), 16);
  const std::int64_t ic_count = ceil_div(layer.inner_length(), 16);
  double sum = 0.0;
  std::int64_t n = 0;
  for (std::int64_t wb = 0; wb < wb_count; ++wb) {
    for (std::int64_t ic = 0; ic < ic_count; ++ic) {
      sum += lw.act_group_precision(0, wb, ic, 16);
      ++n;
    }
  }
  // Profile Pa = 8, trim target = 1.0 -> mean detected ~ 7.
  EXPECT_NEAR(sum / static_cast<double>(n), 7.0, 0.5);
}

TEST(Workload, SmallerColumnsNeverIncreasePrecision) {
  // A group of 4 windows is a subset of the 16-window group: its detected
  // precision cannot exceed the superset's.
  NetworkWorkload wl = make_workload();
  LayerWorkload& lw = wl.layer(0);
  for (std::int64_t wb16 = 0; wb16 < 4; ++wb16) {
    const int p16 = lw.act_group_precision(0, wb16, 0, 16);
    for (std::int64_t sub = 0; sub < 4; ++sub) {
      const int p4 = lw.act_group_precision(0, wb16 * 4 + sub, 0, 4);
      EXPECT_LE(p4, p16);
    }
  }
}

TEST(Workload, EffectiveWeightPrecisionBelowProfile) {
  NetworkWorkload wl = make_workload();
  const double eff = wl.layer(0).effective_weight_precision();
  EXPECT_GT(eff, 1.0);
  EXPECT_LT(eff, 10.0);  // profile Pw = 10, target 0.85x = 8.5
  EXPECT_NEAR(eff, 8.5, 0.5);
}

TEST(Workload, HonestPrecisionAtLeastMean) {
  NetworkWorkload wl = make_workload();
  LayerWorkload& lw = wl.layer(0);
  const double mean_p = lw.effective_weight_precision();
  const double honest1 = lw.honest_weight_precision(1);
  const double honest128 = lw.honest_weight_precision(128);
  EXPECT_GE(honest1 + 0.3, mean_p);  // single group ~ mean (MC tolerance)
  EXPECT_GE(honest128, honest1);     // max over more groups only grows
  EXPECT_LE(honest128, 10.0);
}

TEST(Workload, OutPrecisionFollowsConsumerProfile) {
  NetworkWorkload wl = make_workload();
  // c1 feeds c2 whose profile Pa is 6; c2 feeds the FC (16).
  EXPECT_EQ(wl.layer(0).out_precision, 6);
  EXPECT_EQ(wl.layer(1).out_precision, 16);
}

TEST(Workload, Table3TargetsReproducedOnZooNetwork) {
  auto wl = prepare_network("alexnet", quant::AccuracyTarget::k100);
  const auto& table3 = quant::effective_weight_precisions("alexnet");
  const auto conv_indices = wl->network().conv_indices();
  ASSERT_EQ(conv_indices.size(), table3.size());
  for (std::size_t i = 0; i < conv_indices.size(); ++i) {
    const double measured = wl->layer(conv_indices[i]).effective_weight_precision();
    EXPECT_NEAR(measured, table3[i], 0.25) << "conv layer " << i;
  }
}

TEST(Workload, FcWeightTargetUsesConvTrimRatio) {
  auto wl = prepare_network("alexnet", quant::AccuracyTarget::k100);
  const auto fc_indices = wl->network().fc_indices();
  const double eff = wl->layer(fc_indices[0]).effective_weight_precision();
  // fc6 profile Pw = 10; AlexNet conv trim ratio ~ 7.7/11 -> target ~ 7.0.
  EXPECT_GT(eff, 5.5);
  EXPECT_LT(eff, 10.0);
}

TEST(Workload, PrepareNetworkAppliesProfile) {
  auto wl = prepare_network("vggs", quant::AccuracyTarget::k99);
  const auto convs = wl->network().conv_indices();
  EXPECT_EQ(wl->network().layer(convs[0]).act_precision, 7);
  EXPECT_EQ(wl->network().layer(convs[0]).weight_precision, 11);
}

// ---- Weight statistics: one fused pass vs. the three serial scans ---------
// LayerWorkload measures every weight statistic in one striped pass. These
// test-local copies of the three serial scans it replaced are the oracle;
// the fused results must match them bit for bit.

struct ScannedWeightStats {
  double effective = 0.0;
  double essential = 0.0;
  LayerWorkload::WeightTermStats naf;
};

ScannedWeightStats scan_weight_stats(const LayerWorkload& lw,
                                     const WorkloadOptions& opts) {
  const nn::SyntheticSource source = lw.weight_source();
  const std::int64_t count = lw.layer().weight_count();
  const std::int64_t groups = ceil_div(count, 16);
  const std::int64_t stride = std::max<std::int64_t>(
      1, groups / std::max<std::int64_t>(1, opts.weight_sample_cap / 16));
  ScannedWeightStats out;
  out.effective = quant::weight_group_stats(source, count, 16,
                                            static_cast<int>(stride))
                      .mean;

  double essential_sum = 0.0;
  double term_sum = 0.0;
  double sync_sum = 0.0;
  std::int64_t weights = 0;
  std::int64_t n = 0;
  for (std::int64_t g = 0; g < groups; g += stride) {
    const std::int64_t end = std::min<std::int64_t>((g + 1) * 16, count);
    std::uint32_t ored = 0;
    std::uint32_t union_positions = 0;
    for (std::int64_t i = g * 16; i < end; ++i) {
      const Value v = source.at(static_cast<std::uint64_t>(i));
      const auto mag = static_cast<std::uint32_t>(
          v < 0 ? -static_cast<std::int32_t>(v) : static_cast<std::int32_t>(v));
      ored |= mag;
      const NafDigits d = naf_digits(mag);
      term_sum += std::popcount(d.plus) + std::popcount(d.minus);
      union_positions |= d.positions();
      ++weights;
    }
    essential_sum += std::max(1, std::popcount(ored) + (ored != 0 ? 1 : 0));
    sync_sum += std::max(1, std::popcount(union_positions));
    ++n;
  }
  out.essential = essential_sum / static_cast<double>(n);
  out.naf.mean_per_weight =
      std::max(term_sum / static_cast<double>(weights), 1.0 / 16.0);
  out.naf.synced_per_group = sync_sum / static_cast<double>(n);
  return out;
}

void expect_stats_equal(const ScannedWeightStats& scan,
                        LayerWorkload::WeightTermStats naf, double effective,
                        double essential, const std::string& what) {
  EXPECT_EQ(effective, scan.effective) << what;
  EXPECT_EQ(essential, scan.essential) << what;
  EXPECT_EQ(naf.mean_per_weight, scan.naf.mean_per_weight) << what;
  EXPECT_EQ(naf.synced_per_group, scan.naf.synced_per_group) << what;
}

/// Both call orders on fresh workloads of layer `index`: NAF terms first,
/// and effective precision first.
void check_layer_against_scan(const std::function<NetworkWorkload()>& make,
                              std::size_t index, const std::string& what) {
  {
    NetworkWorkload wl = make();
    LayerWorkload& lw = wl.layer(index);
    const auto naf = lw.naf_weight_terms();
    const double effective = lw.effective_weight_precision();
    const double essential = lw.essential_weight_planes();
    expect_stats_equal(scan_weight_stats(lw, {}), naf, effective, essential,
                       what + " (NAF first)");
  }
  {
    NetworkWorkload wl = make();
    LayerWorkload& lw = wl.layer(index);
    const double effective = lw.effective_weight_precision();
    const double essential = lw.essential_weight_planes();
    const auto naf = lw.naf_weight_terms();
    expect_stats_equal(scan_weight_stats(lw, {}), naf, effective, essential,
                       what + " (effective first)");
  }
}

NetworkWorkload alexnet_workload() {
  nn::Network net = nn::zoo::make("alexnet");
  const quant::PrecisionProfile& profile =
      quant::profile_for("alexnet", quant::AccuracyTarget::k100);
  quant::apply_profile(net, profile);
  return NetworkWorkload(std::move(net), profile);
}

TEST(WorkloadWeightStats, StridedFcLayerMatchesScans) {
  // fc6 holds ~37.7M weights: sampled with a stride, over many stripes.
  const std::size_t fc6 = alexnet_workload().network().fc_indices()[0];
  check_layer_against_scan(alexnet_workload, fc6, "alexnet fc6");
}

TEST(WorkloadWeightStats, RaggedWeightCountMatchesScans) {
  // 3 x 5x5 x 1001 = 75075 weights: not a multiple of 16, so the last of
  // two stripes ends in a partial group.
  const auto make = [] {
    nn::Network net("custom", nn::Shape3{3, 8, 8});
    net.add_conv("c1", 1001, 5, 1, 2).precision_group = 0;
    quant::PrecisionProfile p = custom_profile();
    p.conv_act = {8};
    p.fc_weight = {};
    quant::apply_profile(net, p);
    return NetworkWorkload(std::move(net), p);
  };
  ASSERT_NE(make().network().layer(0).weight_count() % 16, 0);
  check_layer_against_scan(make, 0, "ragged conv");
  check_layer_against_scan(make_workload, 2, "custom fc");
}

TEST(WorkloadWeightStats, ConcurrentCallersSeeOneResult) {
  // Four threads race the three accessors on one fresh workload; the pass
  // runs once and every caller reads the same memo.
  NetworkWorkload wl = alexnet_workload();
  LayerWorkload& lw = wl.layer(wl.network().conv_indices()[1]);
  constexpr int kThreads = 4;
  struct Seen {
    double effective = 0.0;
    double essential = 0.0;
    LayerWorkload::WeightTermStats naf;
  };
  std::vector<Seen> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lw, &seen, t] {
      Seen& s = seen[static_cast<std::size_t>(t)];
      if (t % 2 == 0) {
        s.naf = lw.naf_weight_terms();
        s.effective = lw.effective_weight_precision();
        s.essential = lw.essential_weight_planes();
      } else {
        s.essential = lw.essential_weight_planes();
        s.effective = lw.effective_weight_precision();
        s.naf = lw.naf_weight_terms();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ScannedWeightStats scan = scan_weight_stats(lw, {});
  for (int t = 0; t < kThreads; ++t) {
    const Seen& s = seen[static_cast<std::size_t>(t)];
    expect_stats_equal(scan, s.naf, s.effective, s.essential,
                       "thread " + std::to_string(t));
  }
}

}  // namespace
}  // namespace loom::sim
