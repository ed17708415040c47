#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/fault.h"
#include "src/core/optimizer.h"
#include "src/core/replicate.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/core/thread_pool.h"
#include "src/model/parameters.h"
#include "src/obs/metrics.h"
#include "src/sim/distributions.h"
#include "src/sim/rng.h"

namespace {

using ckptsim::CoordinationMode;
using ckptsim::EngineKind;
using ckptsim::ErrorCode;
using ckptsim::Parameters;
using ckptsim::Replicated;
using ckptsim::ReplicationFailure;
using ckptsim::ReplicationRun;
using ckptsim::RunCounters;
using ckptsim::RunSpec;
using ckptsim::SimError;
using ckptsim::SnapshotSpec;
using ckptsim::WorkerPool;
using ckptsim::obs::ReplicationProbe;
using ckptsim::sim::replication_attempt_seed;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;
using ckptsim::units::kYear;

RunSpec fast_spec() {
  RunSpec s;
  s.transient = 20.0 * kHour;
  s.horizon = 400.0 * kHour;
  s.replications = 3;
  return s;
}

TEST(RunModel, ProducesConfidenceInterval) {
  Parameters p;
  const auto r = ckptsim::run_model(p, fast_spec());
  EXPECT_EQ(r.replications, 3u);
  EXPECT_GT(r.useful_fraction.mean, 0.3);
  EXPECT_LT(r.useful_fraction.mean, 0.95);
  EXPECT_GT(r.useful_fraction.half_width, 0.0);
  EXPECT_NEAR(r.total_useful_work,
              r.useful_fraction.mean * static_cast<double>(p.num_processors), 1e-6);
  EXPECT_GT(r.totals.compute_failures, 0u);
  EXPECT_FALSE(r.describe().empty());
}

TEST(RunModel, ValidatesInput) {
  Parameters bad;
  bad.num_processors = 0;
  EXPECT_THROW((void)ckptsim::run_model(bad, fast_spec()), std::invalid_argument);
  RunSpec no_reps = fast_spec();
  no_reps.replications = 0;
  EXPECT_THROW((void)ckptsim::run_model(Parameters{}, no_reps), std::invalid_argument);
}

TEST(RunModel, SeedControlsReproducibility) {
  const auto a = ckptsim::run_model(Parameters{}, fast_spec());
  const auto b = ckptsim::run_model(Parameters{}, fast_spec());
  EXPECT_DOUBLE_EQ(a.useful_fraction.mean, b.useful_fraction.mean);
  RunSpec other = fast_spec();
  other.seed = 999;
  const auto c = ckptsim::run_model(Parameters{}, other);
  EXPECT_NE(a.useful_fraction.mean, c.useful_fraction.mean);
}

TEST(RunModel, TotalUsefulWorkHelper) {
  const double tuw = ckptsim::total_useful_work(Parameters{}, fast_spec());
  EXPECT_GT(tuw, 0.0);
  EXPECT_LT(tuw, 65536.0);
}

TEST(Sweep, EvaluatesSeriesAndFindsArgmax) {
  Parameters base;
  base.coordination = CoordinationMode::kFixedQuiesce;
  base.io_failures_enabled = false;
  base.master_failures_enabled = false;
  base.mttf_node = 0.5 * kYear;
  const auto series = ckptsim::sweep(
      "MTTF = 0.5 yr", base, {16384, 65536, 262144},
      [](Parameters p, double procs) {
        p.num_processors = static_cast<std::uint64_t>(procs);
        return p;
      },
      fast_spec());
  ASSERT_EQ(series.points.size(), 3u);
  EXPECT_EQ(series.label, "MTTF = 0.5 yr");
  // Figure 4a shape at 0.5 yr: the 64K point dominates both ends.
  EXPECT_EQ(series.argmax_total_useful_work().x, 65536.0);
  // Fraction always decreases with scale.
  EXPECT_EQ(series.argmax_fraction().x, 16384.0);
}

TEST(Sweep, Validation) {
  ckptsim::SweepSeries empty;
  EXPECT_THROW((void)empty.argmax_total_useful_work(), std::logic_error);
  EXPECT_THROW(ckptsim::sweep("x", Parameters{}, {1.0}, nullptr, fast_spec()),
               std::invalid_argument);
}

TEST(Sweep, CanonicalAxes) {
  const auto procs = ckptsim::figure4_processor_axis();
  ASSERT_EQ(procs.size(), 6u);
  EXPECT_EQ(procs.front(), 8192.0);
  EXPECT_EQ(procs.back(), 262144.0);
  const auto intervals = ckptsim::figure4_interval_axis_minutes();
  EXPECT_EQ(intervals, (std::vector<double>{15, 30, 60, 120, 240}));
  const auto fig5 = ckptsim::figure5_processor_axis();
  EXPECT_EQ(fig5.front(), 1.0);
  EXPECT_EQ(fig5.back(), 1073741824.0);
}

TEST(Optimizer, FindsInteriorOptimumProcessors) {
  Parameters base;
  base.coordination = CoordinationMode::kFixedQuiesce;
  base.io_failures_enabled = false;
  base.master_failures_enabled = false;
  base.mttf_node = 0.5 * kYear;
  const auto opt = ckptsim::find_optimal_processors(base, fast_spec(),
                                                    {16384, 32768, 65536, 131072, 262144});
  EXPECT_GE(opt.processors, 32768u);
  EXPECT_LE(opt.processors, 131072u);
  EXPECT_GT(opt.total_useful_work, 0.0);
  EXPECT_EQ(opt.evaluated.size(), 5u);
  EXPECT_THROW(
      ckptsim::find_optimal_processors(base, fast_spec(), {0}),  // invalid candidate
      std::invalid_argument);
}

TEST(Optimizer, IntervalScanShowsNoInteriorOptimumAtScale) {
  // The paper: within 15 min..4 h there is no practical optimum interval —
  // total useful work decreases monotonically for large systems.
  Parameters base;
  base.num_processors = 131072;
  base.coordination = CoordinationMode::kFixedQuiesce;
  base.io_failures_enabled = false;
  base.master_failures_enabled = false;
  RunSpec s = fast_spec();
  s.horizon = 800.0 * kHour;
  const auto scan = ckptsim::scan_checkpoint_interval(base, s);
  ASSERT_EQ(scan.evaluated.size(), 5u);
  EXPECT_LE(scan.best_interval(), 30.0 * kMinute);
  EXPECT_FALSE(scan.has_interior_optimum());
}

TEST(Optimizer, RecommendedTimeoutBoundsAbortProbability) {
  Parameters p;
  const double t = ckptsim::recommended_timeout(p, 0.01);
  const ckptsim::sim::MaxOfExponentials dist(p.num_processors, p.mttq);
  EXPECT_NEAR(1.0 - dist.cdf(t), 0.01, 1e-9);
  // Roughly the paper's "100 s threshold" territory for 64K procs, MTTQ 10 s.
  EXPECT_GT(t, 100.0);
  EXPECT_LT(t, 300.0);
  EXPECT_THROW((void)ckptsim::recommended_timeout(p, 0.0), std::invalid_argument);
}

TEST(RunCountersTest, ArithmeticRoundTrip) {
  RunCounters a;
  a.compute_failures = 10;
  a.ckpt_dumped = 5;
  RunCounters b;
  b.compute_failures = 4;
  b.ckpt_dumped = 2;
  RunCounters sum = a;
  sum += b;
  EXPECT_EQ(sum.compute_failures, 14u);
  const RunCounters diff = sum - b;
  EXPECT_EQ(diff.compute_failures, a.compute_failures);
  EXPECT_EQ(diff.ckpt_dumped, a.ckpt_dumped);
}

TEST(RunSpecTest, QuickIsSmaller) {
  const RunSpec full;
  const RunSpec quick = RunSpec::quick();
  EXPECT_LT(quick.horizon, full.horizon);
  EXPECT_LE(quick.replications, full.replications);
}

// ------------------------------------------------------------ ReplicationRun
// The one replication loop, driven directly: a synthetic attempt whose
// result is a pure function of its seed stands in for a model.

double seeded_value(std::uint64_t seed) { return static_cast<double>(seed % 1000) / 1000.0; }

/// `points` points of the synthetic model; finish and fatal are the test's.
Replicated<double> synthetic(std::size_t points) {
  return Replicated<double>{
      .points = points,
      .attempt = [](std::size_t, std::uint64_t seed, ReplicationProbe*,
                    const SnapshotSpec*) { return seeded_value(seed); },
      .reward = [](const double& v) { return v; },
      .finish = [](std::size_t, const ckptsim::PointRounds<double>&) {},
      .cancelled = "synthetic run stopped"};
}

TEST(ReplicationRun, QueuesItsFirstRoundWhenBuiltAndWorkersOpenTheRest) {
  WorkerPool pool(2);
  WorkerPool::Lane lane(pool);
  RunSpec spec;
  spec.exec.lane = &lane;
  spec.sequential.rel_precision = 1e-9;  // every point runs to its budget
  spec.sequential.min_replications = 2;
  spec.sequential.max_replications = 9;
  std::atomic<std::size_t> finished{0};
  std::vector<std::vector<std::uint32_t>> rounds(2);
  Replicated<double> what = synthetic(2);
  what.finish = [&](std::size_t p, const ckptsim::PointRounds<double>& r) {
    rounds[p] = r.rounds();
    finished.fetch_add(1);
  };
  ReplicationRun<double> run(spec, what);
  // Nobody has waited yet: construction queued both first rounds, and the
  // workers that land a round open the point's next one themselves.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (finished.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(finished.load(), 2u);
  run.wait();
  for (const std::vector<std::uint32_t>& r : rounds) {
    EXPECT_GT(r.size(), 1u);
    EXPECT_EQ(std::accumulate(r.begin(), r.end(), 0u), 9u);
  }
}

TEST(ReplicationRun, FatalCallbackFailsOnePointAndTheOthersRunOn) {
  RunSpec spec;
  spec.replications = 4;
  spec.exec.jobs = 2;
  const std::uint64_t bad2 = replication_attempt_seed(spec.seed, 2, 0);
  const std::uint64_t bad3 = replication_attempt_seed(spec.seed, 3, 0);
  std::mutex mu;
  std::vector<std::size_t> finished;
  std::vector<std::pair<std::size_t, ReplicationFailure>> fatal;
  Replicated<double> what = synthetic(3);
  what.attempt = [&](std::size_t p, std::uint64_t seed, ReplicationProbe*, const SnapshotSpec*) {
    if (p == 1 && (seed == bad2 || seed == bad3)) throw std::runtime_error("point 1 breaks");
    return seeded_value(seed);
  };
  what.finish = [&](std::size_t p, const ckptsim::PointRounds<double>&) {
    const std::lock_guard<std::mutex> lock(mu);
    finished.push_back(p);
  };
  what.fatal = [&](std::size_t p, const ReplicationFailure& f) {
    const std::lock_guard<std::mutex> lock(mu);
    fatal.emplace_back(p, f);
  };
  ckptsim::replicate(spec, what);  // no throw: the failure went to the callback
  std::sort(finished.begin(), finished.end());
  EXPECT_EQ(finished, (std::vector<std::size_t>{0, 2}));
  ASSERT_EQ(fatal.size(), 1u);
  EXPECT_EQ(fatal[0].first, 1u);
  EXPECT_EQ(fatal[0].second.replication, 2u);  // the point's first failure
  EXPECT_EQ(fatal[0].second.code, ErrorCode::kModelError);
  EXPECT_EQ(fatal[0].second.message, "point 1 breaks");
}

TEST(ReplicationRun, ParkedReplicationLandsNothing) {
  RunSpec spec;
  spec.replications = 3;
  spec.exec.jobs = 2;
  const std::uint64_t parked = replication_attempt_seed(spec.seed, 1, 0);
  std::mutex mu;
  std::vector<std::size_t> finished;
  std::size_t fatal = 0;
  Replicated<double> what = synthetic(2);
  what.attempt = [&](std::size_t p, std::uint64_t seed, ReplicationProbe*, const SnapshotSpec*) {
    // What a drain does at a snapshot boundary.
    if (p == 0 && seed == parked) throw SimError(ErrorCode::kInterrupted, "parked");
    return seeded_value(seed);
  };
  what.finish = [&](std::size_t p, const ckptsim::PointRounds<double>&) {
    const std::lock_guard<std::mutex> lock(mu);
    finished.push_back(p);
  };
  what.fatal = [&](std::size_t, const ReplicationFailure&) {
    const std::lock_guard<std::mutex> lock(mu);
    ++fatal;
  };
  try {
    ckptsim::replicate(spec, what);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInterrupted);
    EXPECT_NE(std::string(e.what()).find("synthetic run stopped"), std::string::npos) << e.what();
  }
  // Point 0's round never completes, so it neither finishes nor fails.
  EXPECT_EQ(finished, (std::vector<std::size_t>{1}));
  EXPECT_EQ(fatal, 0u);
}

TEST(ReplicationRun, FlagRaisedAfterEveryPointFinishedIsNoInterrupt) {
  // A drain raises every campaign's flag; a run whose points all finished
  // before anyone looked completed, and says so.
  WorkerPool pool(2);
  WorkerPool::Lane lane(pool);
  std::atomic<bool> cancel{false};
  RunSpec spec;
  spec.replications = 3;
  spec.exec.lane = &lane;
  spec.cancel = &cancel;
  std::atomic<std::size_t> finished{0};
  Replicated<double> what = synthetic(2);
  what.finish = [&](std::size_t, const ckptsim::PointRounds<double>&) { finished.fetch_add(1); };
  ReplicationRun<double> run(spec, what);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (finished.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(finished.load(), 2u);
  cancel.store(true);
  EXPECT_NO_THROW(run.wait());
}

TEST(ReplicationRun, AddsWallSecondsOnlyForAPoolItMade) {
  ckptsim::obs::Metrics metrics(2);
  RunSpec spec;
  spec.replications = 4;
  spec.exec.jobs = 2;
  spec.metrics = &metrics;
  Replicated<double> what = synthetic(2);
  what.attempt = [](std::size_t, std::uint64_t seed, ReplicationProbe*, const SnapshotSpec*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return seeded_value(seed);
  };
  ckptsim::replicate(spec, what);
  const double own = metrics.snapshot().wall_seconds;
  EXPECT_GT(own, 0.0);
  // On a lane the pool's owner keeps the clock: a plain += from concurrent
  // runs would race.
  WorkerPool pool(2);
  WorkerPool::Lane lane(pool);
  spec.exec.lane = &lane;
  ckptsim::replicate(spec, what);
  const ckptsim::obs::MetricsSnapshot after = metrics.snapshot();
  EXPECT_EQ(after.wall_seconds, own);
  EXPECT_EQ(after.replications, 16u);  // both runs' replications still count
}

}  // namespace
