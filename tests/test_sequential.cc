// Precision-driven adaptive studies: the SequentialStopper rule itself and
// the determinism contract of the adaptive drivers — round schedules and
// results must be bit-identical for any thread count, equal to the fixed
// run with the same replication count, CRN-paired across sweep points, and
// exactly resumable from a journal.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/journal.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/parameters.h"
#include "src/obs/metrics.h"
#include "src/san/model.h"
#include "src/san/study.h"
#include "src/stats/sequential.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::Parameters;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::SweepJournal;
using ckptsim::SweepSeries;
using ckptsim::stats::SequentialDecision;
using ckptsim::stats::SequentialSpec;
using ckptsim::stats::SequentialStopper;
using ckptsim::stats::Summary;

std::vector<std::size_t> job_counts() {
  const unsigned hw = std::thread::hardware_concurrency();
  return {1, 4, hw > 8 ? hw : 8};
}

Parameters small_machine() {
  Parameters p;
  p.num_processors = 4096;
  return p;
}

RunSpec adaptive_spec(double rel_precision) {
  RunSpec spec;
  spec.transient = 2.0 * 3600.0;
  spec.horizon = 30.0 * 3600.0;
  spec.seed = 777;
  spec.sequential.rel_precision = rel_precision;
  spec.sequential.min_replications = 3;
  spec.sequential.max_replications = 16;
  return spec;
}

/// A summary whose relative CI half-width is enormous (tiny sample, huge
/// spread) — the stopper must keep scheduling.
Summary noisy_summary() {
  Summary s;
  s.add(0.1);
  s.add(100.0);
  return s;
}

/// A summary whose relative CI half-width is ~0 — the stopper must stop.
Summary tight_summary() {
  Summary s;
  for (int i = 0; i < 8; ++i) s.add(0.5);
  return s;
}

// ---------------------------------------------------------------------------
// SequentialSpec validation
// ---------------------------------------------------------------------------

TEST(SequentialSpec, DisabledByDefaultAndValid) {
  const SequentialSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_NO_THROW(spec.validate());
}

TEST(SequentialSpec, DisabledSpecIgnoresOtherKnobs) {
  SequentialSpec spec;
  spec.rel_precision = 0.0;
  spec.min_replications = 0;  // nonsense, but unused while disabled
  EXPECT_NO_THROW(spec.validate());
}

TEST(SequentialSpec, RejectsBadValues) {
  SequentialSpec spec;
  spec.rel_precision = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.rel_precision = std::nan("");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.rel_precision = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = SequentialSpec{};
  spec.rel_precision = 0.05;
  spec.min_replications = 1;  // a CI needs two samples
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = SequentialSpec{};
  spec.rel_precision = 0.05;
  spec.max_replications = 2;
  spec.min_replications = 5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = SequentialSpec{};
  spec.rel_precision = 0.05;
  spec.growth = 0.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.growth = std::nan("");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SequentialStopper, RejectsDisabledSpec) {
  EXPECT_THROW(SequentialStopper{SequentialSpec{}}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Stopping rule
// ---------------------------------------------------------------------------

TEST(SequentialStopper, GeometricRoundScheduleIsDeterministic) {
  SequentialSpec spec;
  spec.rel_precision = 1e-12;  // unreachable: exercise the full schedule
  spec.min_replications = 5;
  spec.max_replications = 64;
  spec.growth = 1.5;
  const SequentialStopper stopper(spec);
  EXPECT_EQ(stopper.initial_round(), 5u);

  // The schedule is a pure function of the scheduled count: 5 -> +3 -> +4
  // -> +6 -> +9 -> +14 -> +21 -> +2 (budget clamp) -> stop at 64.
  const Summary agg = noisy_summary();
  std::vector<std::size_t> schedule;
  std::size_t scheduled = stopper.initial_round();
  for (;;) {
    schedule.push_back(scheduled);
    const SequentialDecision d = stopper.decide(scheduled, agg, 0.95);
    if (d.stop) break;
    ASSERT_GT(d.next_batch, 0u);
    scheduled += d.next_batch;
    ASSERT_LE(scheduled, spec.max_replications);
  }
  const std::vector<std::size_t> expected{5, 8, 12, 18, 27, 41, 62, 64};
  EXPECT_EQ(schedule, expected);
}

TEST(SequentialStopper, StopsWhenPrecisionMet) {
  SequentialSpec spec;
  spec.rel_precision = 0.05;
  const SequentialStopper stopper(spec);
  const SequentialDecision d = stopper.decide(8, tight_summary(), 0.95);
  EXPECT_TRUE(d.stop);
  EXPECT_EQ(d.next_batch, 0u);
  EXPECT_EQ(d.interval.samples, 8u);
}

TEST(SequentialStopper, StopsAtBudgetEvenWhenImprecise) {
  SequentialSpec spec;
  spec.rel_precision = 1e-12;
  spec.max_replications = 10;
  const SequentialStopper stopper(spec);
  EXPECT_TRUE(stopper.decide(10, noisy_summary(), 0.95).stop);
  EXPECT_TRUE(stopper.decide(11, noisy_summary(), 0.95).stop);
}

TEST(SequentialStopper, NeverStopsOnPrecisionBelowTwoSamples) {
  // One sample yields a zero-width interval around a nonzero mean — a naive
  // rule would declare it "precise".  The stopper must keep scheduling.
  SequentialSpec spec;
  spec.rel_precision = 0.5;
  spec.min_replications = 2;
  const SequentialStopper stopper(spec);
  Summary one;
  one.add(0.7);
  const SequentialDecision d = stopper.decide(2, one, 0.95);
  EXPECT_FALSE(d.stop);  // only 1 successful sample (1 of the 2 failed)
  EXPECT_GT(d.next_batch, 0u);
}

TEST(SequentialStopper, ClampsNextBatchToRemainingBudget) {
  SequentialSpec spec;
  spec.rel_precision = 1e-12;
  spec.min_replications = 5;
  spec.max_replications = 6;
  spec.growth = 4.0;
  const SequentialStopper stopper(spec);
  const SequentialDecision d = stopper.decide(5, noisy_summary(), 0.95);
  EXPECT_FALSE(d.stop);
  EXPECT_EQ(d.next_batch, 1u);  // 5 * 3 = 15 clamped to the 1 remaining
}

TEST(SequentialStopper, InitialRoundClampedByBudget) {
  SequentialSpec spec;
  spec.rel_precision = 0.1;
  spec.min_replications = 5;
  spec.max_replications = 5;
  EXPECT_EQ(SequentialStopper(spec).initial_round(), 5u);
  spec.min_replications = 3;
  EXPECT_EQ(SequentialStopper(spec).initial_round(), 3u);
}

// ---------------------------------------------------------------------------
// Adaptive run_model
// ---------------------------------------------------------------------------

TEST(AdaptiveRun, LoosePrecisionStopsAfterFirstRound) {
  // A target of 10 (1000% relative half-width) is met by any two finite
  // samples, so exactly the initial round runs.
  const RunResult r = run_model(small_machine(), adaptive_spec(10.0), EngineKind::kDes);
  EXPECT_EQ(r.replications, 3u);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0], 3u);
}

TEST(AdaptiveRun, UnreachablePrecisionRunsToBudget) {
  RunSpec spec = adaptive_spec(1e-12);
  const RunResult r = run_model(small_machine(), spec, EngineKind::kDes);
  EXPECT_EQ(r.replications, spec.sequential.max_replications);
  // Schedule for min=3, growth=1.5, max=16: 3 -> +2 -> +3 -> +4 -> +4.
  const std::vector<std::uint32_t> expected{3, 2, 3, 4, 4};
  EXPECT_EQ(r.rounds, expected);
  EXPECT_EQ(std::accumulate(r.rounds.begin(), r.rounds.end(), 0u), r.replications);
}

TEST(AdaptiveRun, FixedModeCarriesNoRounds) {
  RunSpec spec = adaptive_spec(0.0);  // disabled
  spec.replications = 3;
  const RunResult r = run_model(small_machine(), spec, EngineKind::kDes);
  EXPECT_TRUE(r.rounds.empty());
}

TEST(AdaptiveRun, BitIdenticalAcrossJobCounts) {
  RunSpec spec = adaptive_spec(0.05);
  spec.exec.jobs = 1;
  const RunResult serial = run_model(small_machine(), spec, EngineKind::kDes);
  for (const std::size_t jobs : job_counts()) {
    spec.exec.jobs = jobs;
    const RunResult par = run_model(small_machine(), spec, EngineKind::kDes);
    EXPECT_EQ(par.rounds, serial.rounds) << "jobs = " << jobs;
    EXPECT_EQ(par.replications, serial.replications);
    EXPECT_EQ(par.useful_fraction.mean, serial.useful_fraction.mean);
    EXPECT_EQ(par.useful_fraction.half_width, serial.useful_fraction.half_width);
    EXPECT_EQ(par.total_useful_work, serial.total_useful_work);
    EXPECT_EQ(std::memcmp(&par.totals, &serial.totals, sizeof(par.totals)), 0);
  }
}

TEST(AdaptiveRun, MatchesFixedRunWithSameReplicationCount) {
  // Replication r keeps its canonical seed in every round, so an adaptive
  // run that scheduled N replications must equal the fixed N-replication
  // run bit for bit — the strongest form of the CRN guarantee.
  const RunSpec spec = adaptive_spec(0.05);
  const RunResult adaptive = run_model(small_machine(), spec, EngineKind::kDes);
  RunSpec fixed = spec;
  fixed.sequential = SequentialSpec{};
  fixed.replications = adaptive.replications;
  const RunResult direct = run_model(small_machine(), fixed, EngineKind::kDes);
  EXPECT_EQ(adaptive.useful_fraction.mean, direct.useful_fraction.mean);
  EXPECT_EQ(adaptive.useful_fraction.half_width, direct.useful_fraction.half_width);
  EXPECT_EQ(adaptive.fraction_replicates.mean(), direct.fraction_replicates.mean());
  EXPECT_EQ(std::memcmp(&adaptive.totals, &direct.totals, sizeof(adaptive.totals)), 0);
}

TEST(AdaptiveRun, SanEngineSupportsSequentialStopping) {
  RunSpec spec = adaptive_spec(10.0);
  spec.horizon = 20.0 * 3600.0;
  const RunResult r = run_model(small_machine(), spec, EngineKind::kSan);
  EXPECT_EQ(r.replications, 3u);
  ASSERT_EQ(r.rounds.size(), 1u);
}

TEST(AdaptiveRun, SpecValidationCoversSequential) {
  RunSpec spec = adaptive_spec(0.05);
  spec.sequential.min_replications = 1;
  EXPECT_THROW(run_model(small_machine(), spec, EngineKind::kDes), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Adaptive sweep: CRN pairing, determinism, journal resume
// ---------------------------------------------------------------------------

const std::vector<double> kXs{2048, 4096};

Parameters apply_procs(Parameters p, double x) {
  p.num_processors = static_cast<std::uint64_t>(x);
  return p;
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + "ckptsim_" + name + "_" +
             std::to_string(::getpid()) + ".jsonl") {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

void expect_points_identical(const SweepSeries& a, const SweepSeries& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].result.rounds, b.points[i].result.rounds);
    EXPECT_EQ(a.points[i].result.replications, b.points[i].result.replications);
    EXPECT_EQ(a.points[i].result.useful_fraction.mean, b.points[i].result.useful_fraction.mean);
    EXPECT_EQ(a.points[i].result.useful_fraction.half_width,
              b.points[i].result.useful_fraction.half_width);
    EXPECT_EQ(a.points[i].result.total_useful_work, b.points[i].result.total_useful_work);
  }
}

TEST(AdaptiveSweep, BitIdenticalAcrossJobCounts) {
  RunSpec spec = adaptive_spec(0.05);
  spec.exec.jobs = 1;
  const SweepSeries serial = sweep("procs", small_machine(), kXs, apply_procs, spec);
  for (const std::size_t jobs : job_counts()) {
    spec.exec.jobs = jobs;
    expect_points_identical(serial, sweep("procs", small_machine(), kXs, apply_procs, spec));
  }
}

TEST(AdaptiveSweep, MatchesPerPointAdaptiveRunModel) {
  // Each sweep point must behave exactly as its own adaptive run_model —
  // the sweep's shared rounds are an execution detail, not a semantic one.
  // Together with run_model's determinism this is the CRN property:
  // replication r of every point draws from replication_seed(seed, r).
  const RunSpec spec = adaptive_spec(0.05);
  const SweepSeries series = sweep("procs", small_machine(), kXs, apply_procs, spec);
  for (std::size_t i = 0; i < kXs.size(); ++i) {
    const RunResult direct = run_model(apply_procs(small_machine(), kXs[i]), spec);
    EXPECT_EQ(series.points[i].result.rounds, direct.rounds);
    EXPECT_EQ(series.points[i].result.replications, direct.replications);
    EXPECT_EQ(series.points[i].result.useful_fraction.mean, direct.useful_fraction.mean);
    EXPECT_EQ(series.points[i].result.useful_fraction.half_width,
              direct.useful_fraction.half_width);
  }
}

TEST(AdaptiveSweep, JournalRoundTripsRoundsAndResumesExactly) {
  const TempFile tmp("adaptive_resume");
  const RunSpec spec = adaptive_spec(0.05);
  SweepSeries first;
  {
    SweepJournal journal(tmp.path);
    first = sweep("procs", small_machine(), kXs, apply_procs, spec, EngineKind::kDes, &journal);
  }
  for (const auto& point : first.points) {
    EXPECT_FALSE(point.result.rounds.empty());
  }
  // Resume from the journal: every point restores (including its recorded
  // rounds) without re-simulating; the series is bit-identical.
  SweepJournal reloaded(tmp.path);
  EXPECT_EQ(reloaded.loaded(), kXs.size());
  RunSpec no_sim = spec;
  no_sim.fault_injection = [](std::size_t, std::size_t) {
    throw std::runtime_error("resume must not re-simulate journaled points");
  };
  const SweepSeries resumed =
      sweep("procs", small_machine(), kXs, apply_procs, no_sim, EngineKind::kDes, &reloaded);
  expect_points_identical(first, resumed);
}

TEST(AdaptiveSweep, FingerprintSeparatesAdaptiveFromFixed) {
  const Parameters p = small_machine();
  const RunSpec fixed = adaptive_spec(0.0);
  RunSpec adaptive = adaptive_spec(0.05);
  const std::uint64_t fixed_fp =
      ckptsim::journal_fingerprint("s", p, fixed, EngineKind::kDes, 1.0);
  const std::uint64_t adaptive_fp =
      ckptsim::journal_fingerprint("s", p, adaptive, EngineKind::kDes, 1.0);
  EXPECT_NE(fixed_fp, adaptive_fp);
  // And the precision target itself is identity-bearing.
  adaptive.sequential.rel_precision = 0.01;
  EXPECT_NE(adaptive_fp, ckptsim::journal_fingerprint("s", p, adaptive, EngineKind::kDes, 1.0));
}

TEST(AdaptiveSweep, MetricsRecordPerPointRounds) {
  RunSpec spec = adaptive_spec(10.0);
  ckptsim::obs::Metrics metrics(2);
  spec.metrics = &metrics;
  spec.exec.jobs = 2;
  (void)sweep("procs", small_machine(), kXs, apply_procs, spec);
  const ckptsim::obs::MetricsSnapshot snap = metrics.snapshot();
  ASSERT_EQ(snap.points.size(), kXs.size());
  for (std::size_t i = 0; i < snap.points.size(); ++i) {
    EXPECT_EQ(snap.points[i].label, "procs");
    EXPECT_EQ(snap.points[i].x, kXs[i]);
    EXPECT_EQ(snap.points[i].replications, 3u);
    EXPECT_EQ(snap.points[i].rounds, std::vector<std::uint32_t>{3});
  }
  EXPECT_NE(snap.to_json().find("\"points\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Adaptive SAN study
// ---------------------------------------------------------------------------

ckptsim::san::Model on_off_model() {
  using namespace ckptsim::san;
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

RunSpec adaptive_study_spec(double rel_precision) {
  RunSpec spec;
  spec.transient = 20.0;
  spec.horizon = 800.0;
  spec.seed = 31;
  spec.sequential.rel_precision = rel_precision;
  spec.sequential.min_replications = 3;
  spec.sequential.max_replications = 24;
  return spec;
}

TEST(AdaptiveStudy, StopsAndRecordsRounds) {
  using ckptsim::san::Marking;
  using ckptsim::san::RateRewardSpec;
  const auto m = on_off_model();
  const auto on = m.place("on");
  ckptsim::san::Study study(
      m, {RateRewardSpec{"on", [on](const Marking& mk) { return mk.has(on) ? 1.0 : 0.0; }}}, {});
  const auto r = study.run(adaptive_study_spec(10.0));
  EXPECT_EQ(r.replications, 3u);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0], 3u);

  const auto budget = study.run(adaptive_study_spec(1e-12));
  EXPECT_EQ(budget.replications, 24u);
  EXPECT_GT(budget.rounds.size(), 1u);
}

TEST(AdaptiveStudy, BitIdenticalAcrossJobCounts) {
  using ckptsim::san::Marking;
  using ckptsim::san::RateRewardSpec;
  const auto m = on_off_model();
  const auto on = m.place("on");
  ckptsim::san::Study study(
      m, {RateRewardSpec{"on", [on](const Marking& mk) { return mk.has(on) ? 1.0 : 0.0; }}}, {});
  auto spec = adaptive_study_spec(0.05);
  spec.exec.jobs = 1;
  const auto serial = study.run(spec);
  for (const std::size_t jobs : job_counts()) {
    spec.exec.jobs = jobs;
    const auto par = study.run(spec);
    EXPECT_EQ(par.rounds, serial.rounds) << "jobs = " << jobs;
    EXPECT_EQ(par.total_firings, serial.total_firings);
    EXPECT_EQ(par.reward("on").interval.mean, serial.reward("on").interval.mean);
    EXPECT_EQ(par.reward("on").interval.half_width, serial.reward("on").interval.half_width);
  }
}

TEST(AdaptiveStudy, RejectsUnknownPrecisionReward) {
  using ckptsim::san::Marking;
  using ckptsim::san::RateRewardSpec;
  const auto m = on_off_model();
  const auto on = m.place("on");
  ckptsim::san::Study study(
      m, {RateRewardSpec{"on", [on](const Marking& mk) { return mk.has(on) ? 1.0 : 0.0; }}}, {});
  auto spec = adaptive_study_spec(0.05);
  EXPECT_THROW((void)study.run(spec, "no_such_reward"), std::invalid_argument);
  EXPECT_NO_THROW((void)study.run(spec, "on"));
}

}  // namespace
