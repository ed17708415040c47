#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <string>

#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/nodelevel/node_level_model.h"
#include "src/sim/distributions.h"
#include "src/sim/rng.h"

namespace {

using ckptsim::DesModel;
using ckptsim::NodeLevelModel;
using ckptsim::Parameters;
using ckptsim::SpatialCorrelation;
using ckptsim::units::kHour;
using ckptsim::units::kYear;

Parameters small_machine() {
  Parameters p;
  p.num_processors = 8192;  // 1024 nodes, 16 I/O groups — node-level friendly
  p.mttf_node = 0.25 * kYear;
  return p;
}

TEST(NodeLevel, MatchesAggregatedModelWithoutSpatialCorrelation) {
  // The aggregation-validity check: the disaggregated engine must agree
  // with the aggregated one when the extensions are off.
  const Parameters p = small_machine();
  ckptsim::stats::Summary agg, node;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    DesModel a(p, seed);
    agg.add(a.run(20.0 * kHour, 1500.0 * kHour).useful_fraction);
    NodeLevelModel b(p, seed + 100);
    node.add(b.run(20.0 * kHour, 1500.0 * kHour).useful_fraction);
  }
  EXPECT_NEAR(agg.mean(), node.mean(), 0.02);
}

TEST(NodeLevel, CoordinationLatencyMatchesClosedForm) {
  // The explicit per-node maximum must reproduce the closed-form
  // MaxOfExponentials(num_processors, mttq) distribution of Sec. 5.
  Parameters p = small_machine();
  p.compute_failures_enabled = false;
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  NodeLevelModel model(p, 3);
  (void)model.run(0.0, 600.0 * kHour);
  const auto& lat = model.coordination_latency();
  ASSERT_GT(lat.count(), 500u);
  const ckptsim::sim::MaxOfExponentials closed(p.num_processors, p.mttq);
  EXPECT_NEAR(lat.mean(), closed.mean(), closed.mean() * 0.03);
}

TEST(NodeLevel, VictimsAreUniformWithoutSpatialCorrelation) {
  Parameters p = small_machine();
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  NodeLevelModel model(p, 5);
  (void)model.run(0.0, 3000.0 * kHour);
  const auto& failures = model.failures_per_node();
  const double total = std::accumulate(failures.begin(), failures.end(), 0.0);
  ASSERT_GT(total, 1000.0);
  const double expected = total / static_cast<double>(failures.size());
  // Chi-square-ish sanity: per-node counts scatter around the uniform mean.
  double chi2 = 0.0;
  for (const auto f : failures) {
    const double d = static_cast<double>(f) - expected;
    chi2 += d * d / expected;
  }
  // dof ~ 1023; 99.9% quantile ~ 1168 — allow generous headroom.
  EXPECT_LT(chi2, 1300.0);
  // Consecutive failures share an I/O group at ~1/io_nodes.
  EXPECT_NEAR(model.same_group_fraction(), 1.0 / static_cast<double>(p.io_nodes()), 0.03);
  EXPECT_EQ(model.spatial_windows(), 0u);
}

TEST(NodeLevel, SpatialCorrelationClustersFailures) {
  Parameters p = small_machine();
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  SpatialCorrelation spatial;
  spatial.probability = 0.5;
  spatial.factor = 500.0;
  spatial.window = 180.0;
  NodeLevelModel clustered(p, spatial, 7);
  (void)clustered.run(0.0, 2000.0 * kHour);
  EXPECT_GT(clustered.spatial_windows(), 50u);
  const auto& spatial_failures = clustered.spatial_failures_per_node();
  const double spatial_total =
      std::accumulate(spatial_failures.begin(), spatial_failures.end(), 0.0);
  EXPECT_GT(spatial_total, 50.0);
  // Clustering signal: consecutive failures share a group far more often
  // than the uniform 1/16 baseline.
  EXPECT_GT(clustered.same_group_fraction(), 3.0 / static_cast<double>(p.io_nodes()));
}

TEST(NodeLevel, SpatialBurstsAreCheaperThanSmoothRateInflation) {
  // Spatially clustered bursts behave like temporal bursts: most of the
  // extra failures land inside one recovery and lose no additional work.
  Parameters p = small_machine();
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;

  SpatialCorrelation spatial;
  spatial.probability = 0.3;
  spatial.factor = 400.0;
  spatial.window = 180.0;
  NodeLevelModel bursty(p, spatial, 11);
  const auto r_bursty = bursty.run(20.0 * kHour, 2000.0 * kHour);

  NodeLevelModel baseline(p, 11);
  const auto r_base = baseline.run(20.0 * kHour, 2000.0 * kHour);

  // More failures happened...
  EXPECT_GT(r_bursty.counters.extra_failures, 0u);
  // ...but the fraction moves only modestly (same flavour as Fig. 7).
  EXPECT_LT(r_base.useful_fraction - r_bursty.useful_fraction, 0.08);
}

TEST(NodeLevel, StragglerIsTrackedPerCoordination) {
  Parameters p = small_machine();
  p.compute_failures_enabled = false;
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  NodeLevelModel model(p, 13);
  (void)model.run(0.0, 300.0 * kHour);
  const auto& stragglers = model.straggler_counts();
  const auto total = std::accumulate(stragglers.begin(), stragglers.end(), 0u);
  EXPECT_EQ(static_cast<std::size_t>(total), model.coordination_latency().count());
  // No node should dominate: i.i.d. quiesce times make stragglers uniform.
  const auto max_count = *std::max_element(stragglers.begin(), stragglers.end());
  EXPECT_LT(max_count, total / 20u + 5u);
}

/// The coordination diagnostics of one replication: every straggler count
/// and the latency summary, doubles at full precision.
std::string render_coordination(const NodeLevelModel& model) {
  std::string s;
  for (const std::uint32_t n : model.straggler_counts()) s += std::to_string(n) + ",";
  const auto& lat = model.coordination_latency();
  char buf[160];
  std::snprintf(buf, sizeof buf, "|%" PRIu64 "|%.17g|%.17g|%.17g|%.17g", lat.count(), lat.mean(),
                lat.variance(), lat.min(), lat.max());
  return s + buf;
}

TEST(NodeLevel, StragglerCountsAndCoordinationLatencyArePinned) {
  // The per-node maximum's exact output at fixed seeds: which node was the
  // straggler of each coordination and the latencies drawn.  A change to
  // how the maximum is drawn must reproduce both bit for bit.
  struct Pin {
    bool failures;
    std::uint64_t seed;
    std::uint64_t count;
    std::uint64_t digest;  ///< fnv1a64(render_coordination)
  };
  constexpr Pin kPins[] = {
      {false, 13, 555, 0xf765b0c459636c16ULL},
      {true, 7, 478, 0x98d41f0915456b4eULL},
      {true, 21, 461, 0x208ecfed77f00614ULL},
  };
  for (const Pin& pin : kPins) {
    SCOPED_TRACE("failures " + std::to_string(pin.failures) + " seed " +
                 std::to_string(pin.seed));
    Parameters p = small_machine();
    if (!pin.failures) {
      p.compute_failures_enabled = false;
      p.io_failures_enabled = false;
      p.master_failures_enabled = false;
    }
    NodeLevelModel model(p, pin.seed);
    (void)model.run(0.0, 300.0 * kHour);
    const std::string text = render_coordination(model);
    char row[96];
    std::snprintf(row, sizeof row, "{%s, %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64 "ULL}",
                  pin.failures ? "true" : "false", pin.seed,
                  model.coordination_latency().count(), ckptsim::sim::fnv1a64(text));
    EXPECT_EQ(model.coordination_latency().count(), pin.count) << row;
    EXPECT_EQ(ckptsim::sim::fnv1a64(text), pin.digest) << row;
  }
}

TEST(NodeLevel, NonMaxCoordinationModesDelegateToBase) {
  Parameters p = small_machine();
  p.coordination = ckptsim::CoordinationMode::kFixedQuiesce;
  p.compute_failures_enabled = false;
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  NodeLevelModel model(p, 17);
  const auto r = model.run(0.0, 100.0 * kHour);
  EXPECT_GT(r.counters.ckpt_dumped, 0u);
  EXPECT_EQ(model.coordination_latency().count(), 0u);  // closed-form path used
}

TEST(NodeLevel, ValidatesSpatialParameters) {
  SpatialCorrelation bad;
  bad.probability = 1.5;
  EXPECT_THROW(NodeLevelModel(small_machine(), bad, 1), std::invalid_argument);
  SpatialCorrelation zero_window;
  zero_window.probability = 0.5;
  zero_window.factor = 10.0;
  zero_window.window = 0.0;
  EXPECT_THROW(NodeLevelModel(small_machine(), zero_window, 1), std::invalid_argument);
}

}  // namespace
