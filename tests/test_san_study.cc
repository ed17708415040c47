#include <gtest/gtest.h>

#include <stdexcept>

#include "src/san/model.h"
#include "src/san/study.h"

namespace {

using ckptsim::RunSpec;
using ckptsim::san::ActivitySpec;
using ckptsim::san::ImpulseRewardSpec;
using ckptsim::san::InputArc;
using ckptsim::san::Marking;
using ckptsim::san::Model;
using ckptsim::san::OutputArc;
using ckptsim::san::PlaceId;
using ckptsim::san::RateRewardSpec;
using ckptsim::san::Study;

/// Two-state on/off model: on -> off at rate 1, off -> on at rate 3.
/// Stationary P(on) = 3/4.
Model on_off_model() {
  Model m;
  const PlaceId on = m.add_place("on", 1);
  const PlaceId off = m.add_place("off", 0);
  ActivitySpec to_off;
  to_off.name = "to_off";
  to_off.latency = [](const Marking&, ckptsim::sim::Rng& r) { return r.exponential_rate(1.0); };
  to_off.input_arcs = {InputArc{on, 1}};
  to_off.output_arcs = {OutputArc{off, 1}};
  m.add_activity(std::move(to_off));
  ActivitySpec to_on;
  to_on.name = "to_on";
  to_on.latency = [](const Marking&, ckptsim::sim::Rng& r) { return r.exponential_rate(3.0); };
  to_on.input_arcs = {InputArc{off, 1}};
  to_on.output_arcs = {OutputArc{on, 1}};
  m.add_activity(std::move(to_on));
  return m;
}

std::vector<RateRewardSpec> on_reward(const Model& m) {
  const PlaceId on = m.place("on");
  return {RateRewardSpec{"on", [on](const Marking& mk) { return mk.has(on) ? 1.0 : 0.0; }}};
}

TEST(SanStudy, EstimatesStationaryProbabilityWithCi) {
  const Model m = on_off_model();
  Study study(m, on_reward(m), {});
  RunSpec spec;
  spec.transient = 50.0;
  spec.horizon = 5000.0;
  spec.replications = 8;
  spec.seed = 1;
  const auto result = study.run(spec);
  const auto& measure = result.reward("on");
  EXPECT_EQ(measure.replicate_means.count(), 8u);
  EXPECT_NEAR(measure.interval.mean, 0.75, 0.02);
  EXPECT_GT(measure.interval.half_width, 0.0);
  EXPECT_LT(measure.interval.half_width, 0.05);
  EXPECT_TRUE(measure.interval.contains(0.75));
  EXPECT_GT(result.total_firings, 1000u);
}

TEST(SanStudy, ImpulseRewardsAggregateAsRates) {
  // Impulse 1 per to_off firing: the time average estimates the firing
  // rate, which is P(on) * 1 = 0.75 per unit time.
  const Model m = on_off_model();
  std::vector<ImpulseRewardSpec> impulses{
      ImpulseRewardSpec{"offs", "to_off", [](const Marking&, double) { return 1.0; }}};
  Study study(m, {}, impulses);
  RunSpec spec;
  spec.transient = 50.0;
  spec.horizon = 5000.0;
  spec.replications = 6;
  spec.seed = 1;
  const auto result = study.run(spec);
  EXPECT_NEAR(result.reward("offs").interval.mean, 0.75, 0.03);
}

TEST(SanStudy, SharedNameCombines) {
  const Model m = on_off_model();
  auto rates = on_reward(m);
  std::vector<ImpulseRewardSpec> impulses{
      ImpulseRewardSpec{"on", "to_off", [](const Marking&, double) { return -0.1; }}};
  Study study(m, rates, impulses);
  RunSpec spec;
  spec.transient = 10.0;
  spec.horizon = 2000.0;
  spec.replications = 4;
  spec.seed = 1;
  const auto result = study.run(spec);
  // Combined variable: 0.75 (rate) - 0.1 * 0.75 (impulses) = 0.675.
  EXPECT_NEAR(result.reward("on").interval.mean, 0.675, 0.03);
  EXPECT_THROW((void)result.reward("missing"), std::out_of_range);
}

TEST(SanStudy, DeterministicPerSeed) {
  const Model m = on_off_model();
  Study study(m, on_reward(m), {});
  RunSpec spec;
  spec.transient = 0.0;
  spec.horizon = 500.0;
  spec.replications = 3;
  spec.seed = 77;
  const auto a = study.run(spec);
  const auto b = study.run(spec);
  EXPECT_DOUBLE_EQ(a.reward("on").interval.mean, b.reward("on").interval.mean);
  spec.seed = 78;
  const auto c = study.run(spec);
  EXPECT_NE(a.reward("on").interval.mean, c.reward("on").interval.mean);
}

TEST(SanStudy, HonoursFaultInjection) {
  // The study hands RunSpec's fault hook to the replication driver, as
  // run_model does: under skip, the faulted replication is dropped and
  // accounted, and the others aggregate.
  const Model m = on_off_model();
  Study study(m, on_reward(m), {});
  RunSpec spec;
  spec.transient = 0.0;
  spec.horizon = 200.0;
  spec.replications = 4;
  spec.seed = 1;
  spec.on_failure.mode = ckptsim::FailurePolicy::Mode::kSkip;
  spec.fault_injection = [](std::size_t replication, std::size_t) {
    if (replication == 2) throw std::runtime_error("injected");
  };
  const auto result = study.run(spec);
  EXPECT_EQ(result.replications, 3u);
  ASSERT_EQ(result.failures.skipped.size(), 1u);
  EXPECT_EQ(result.failures.skipped[0].replication, 2u);
  EXPECT_EQ(result.failures.skipped[0].code, ckptsim::ErrorCode::kInjectedFault);
}

TEST(SanStudy, Validation) {
  const Model m = on_off_model();
  Study study(m, on_reward(m), {});
  RunSpec bad;
  bad.horizon = 0.0;
  EXPECT_THROW(study.run(bad), std::invalid_argument);
  RunSpec no_reps;
  no_reps.replications = 0;
  EXPECT_THROW(study.run(no_reps), std::invalid_argument);
  // A study's attempts take no snapshots.
  RunSpec snapshots;
  snapshots.snapshot_every_events = 1000;
  snapshots.snapshot_dir = ::testing::TempDir();
  EXPECT_THROW(study.run(snapshots), std::invalid_argument);
}

}  // namespace
