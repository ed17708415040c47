// DesBatch ↔ DesModel equivalence: the fixed-slot engine must be
// bit-identical to the event-queue engine per replication seed — same
// ReplicationResult down to the last bit, same event trajectory, same
// per-kind event tallies, same queue telemetry — for every model
// configuration and any batch width/placement.  These tests pin that
// contract directly (engine vs engine) and end-to-end through
// run_replication, run_model and sweep, whose plain DES replications run
// on DesBatch while snapshotted ones run on DesModel.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/journal.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/des_batch.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/obs/metrics.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/trace/event_log.h"

namespace {

using ckptsim::CoordinationMode;
using ckptsim::DesBatch;
using ckptsim::DesModel;
using ckptsim::EngineKind;
using ckptsim::FailureDistribution;
using ckptsim::Parameters;
using ckptsim::ReplicationResult;
using ckptsim::RunCounters;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::run_model;
using ckptsim::sim::fnv1a64;
using ckptsim::trace::EventCounts;
using ckptsim::trace::EventLog;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;

/// Bitwise double equality: distinguishes -0.0 from 0.0 and compares NaN
/// payloads, which is exactly the "bit-identical" claim under test.
void expect_bits_eq(double a, double b, const char* what) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

void expect_counters_eq(const RunCounters& a, const RunCounters& b) {
  EXPECT_EQ(a.compute_failures, b.compute_failures);
  EXPECT_EQ(a.extra_failures, b.extra_failures);
  EXPECT_EQ(a.io_failures, b.io_failures);
  EXPECT_EQ(a.master_aborts, b.master_aborts);
  EXPECT_EQ(a.ckpt_initiated, b.ckpt_initiated);
  EXPECT_EQ(a.ckpt_dumped, b.ckpt_dumped);
  EXPECT_EQ(a.ckpt_full, b.ckpt_full);
  EXPECT_EQ(a.ckpt_incremental, b.ckpt_incremental);
  EXPECT_EQ(a.ckpt_committed, b.ckpt_committed);
  EXPECT_EQ(a.ckpt_aborted_timeout, b.ckpt_aborted_timeout);
  EXPECT_EQ(a.ckpt_aborted_failure, b.ckpt_aborted_failure);
  EXPECT_EQ(a.ckpt_aborted_io, b.ckpt_aborted_io);
  EXPECT_EQ(a.recoveries_started, b.recoveries_started);
  EXPECT_EQ(a.recoveries_completed, b.recoveries_completed);
  EXPECT_EQ(a.recovery_restarts, b.recovery_restarts);
  EXPECT_EQ(a.stage1_reads, b.stage1_reads);
  EXPECT_EQ(a.reboots, b.reboots);
  EXPECT_EQ(a.prop_windows, b.prop_windows);
}

void expect_result_eq(const ReplicationResult& a, const ReplicationResult& b) {
  expect_bits_eq(a.useful_fraction, b.useful_fraction, "useful_fraction");
  expect_bits_eq(a.gross_execution_fraction, b.gross_execution_fraction,
                 "gross_execution_fraction");
  expect_bits_eq(a.observed_span, b.observed_span, "observed_span");
  expect_bits_eq(a.breakdown.executing, b.breakdown.executing, "executing");
  expect_bits_eq(a.breakdown.checkpointing, b.breakdown.checkpointing, "checkpointing");
  expect_bits_eq(a.breakdown.recovering, b.breakdown.recovering, "recovering");
  expect_bits_eq(a.breakdown.rebooting, b.breakdown.rebooting, "rebooting");
  expect_counters_eq(a.counters, b.counters);
}

/// Same rendering as the golden-trajectory checksum so a mismatch here and
/// there point at the same byte stream.
std::uint64_t event_log_checksum(const EventLog& log) {
  std::string s;
  s.reserve(log.size() * 48);
  char buf[96];
  for (const auto& e : log.events()) {
    std::snprintf(buf, sizeof buf, "%.17g|%u|%.17g;", e.time, static_cast<unsigned>(e.kind),
                  e.value);
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "#%llu",
                static_cast<unsigned long long>(log.total_recorded()));
  s += buf;
  return fnv1a64(s);
}

/// The model configurations that exercise distinct handler paths: the
/// defaults, correlated propagation windows, the generic-correlated toggle
/// (both smooth and phase-switching), Weibull interarrivals, incremental
/// dump chains, synchronous FS writes, and a nonzero coordination timeout.
std::vector<std::pair<std::string, Parameters>> grid() {
  std::vector<std::pair<std::string, Parameters>> out;
  out.emplace_back("defaults", Parameters{});
  {
    Parameters p;
    p.prob_correlated = 0.3;
    p.correlated_window = 5.0 * kMinute;
    out.emplace_back("correlated", p);
  }
  {
    Parameters p;
    p.generic_correlated_coefficient = 0.6;
    out.emplace_back("generic_smooth", p);
  }
  {
    Parameters p;
    p.generic_correlated_coefficient = 0.6;
    p.generic_correlated_smooth = false;
    out.emplace_back("generic_toggle", p);
  }
  {
    Parameters p;
    p.failure_distribution = FailureDistribution::kWeibull;
    p.weibull_shape = 0.7;
    out.emplace_back("weibull", p);
  }
  {
    Parameters p;
    p.incremental_size_fraction = 0.25;
    p.full_checkpoint_period = 4;
    out.emplace_back("incremental", p);
  }
  {
    Parameters p;
    p.background_fs_write = false;
    out.emplace_back("sync_fs_write", p);
  }
  {
    Parameters p;
    p.timeout = 30.0;
    p.coordination = CoordinationMode::kMaxOfExponentials;
    out.emplace_back("timeout_maxexp", p);
  }
  return out;
}

TEST(DesBatch, MatchesSequentialBitForBitAcrossConfigs) {
  constexpr std::uint64_t kMaster = 0xB417ULL;
  constexpr std::size_t kReps = 3;
  constexpr double kTransient = 2.0 * kHour;
  constexpr double kHorizon = 40.0 * kHour;
  for (const auto& [name, params] : grid()) {
    SCOPED_TRACE(name);
    std::vector<std::uint64_t> seeds;
    for (std::size_t r = 0; r < kReps; ++r) {
      seeds.push_back(ckptsim::sim::replication_seed(kMaster, r));
    }
    DesBatch batch(params, seeds);
    const std::vector<ReplicationResult> batched = batch.run(kTransient, kHorizon);
    ASSERT_EQ(batched.size(), kReps);
    for (std::size_t r = 0; r < kReps; ++r) {
      SCOPED_TRACE("rep " + std::to_string(r));
      DesModel model(params, seeds[r]);
      const ReplicationResult seq = model.run(kTransient, kHorizon);
      expect_result_eq(batched[r], seq);
      // Queue telemetry: the live-event trajectory is identical, so
      // scheduled/fired/cancelled and the live peak agree.  compactions and
      // peak_dead are heap bookkeeping the slot array does not have.
      const ckptsim::sim::QueueStats bs = batch.queue_stats(r);
      const ckptsim::sim::QueueStats ss = model.queue_stats();
      EXPECT_EQ(bs.scheduled, ss.scheduled);
      EXPECT_EQ(bs.fired, ss.fired);
      EXPECT_EQ(bs.cancelled, ss.cancelled);
      EXPECT_EQ(bs.peak_size, ss.peak_size);
    }
  }
}

TEST(DesBatch, EventTrajectoryMatchesGoldenBaseline) {
  // The golden DES checksum (see test_golden_trajectory.cc) must be
  // reproduced by the batched engine with the golden seed in the MIDDLE of
  // a batch: neighbours prove trajectory isolation, the pinned constant
  // proves the batched engine walks the committed sequential trajectory.
  constexpr std::uint64_t kDesGoldenChecksum = 0x303d1019efe156f9ULL;
  constexpr std::uint64_t kDesGoldenTotalEvents = 2653ULL;
  const std::vector<std::uint64_t> seeds = {20260804, 20260805, 20260806};
  std::vector<EventLog> logs;
  logs.reserve(seeds.size());
  for (std::size_t r = 0; r < seeds.size(); ++r) logs.emplace_back(1 << 18);
  DesBatch batch(Parameters{}, seeds);
  for (std::size_t r = 0; r < seeds.size(); ++r) batch.set_event_log(r, &logs[r]);
  (void)batch.run(0.0, 60.0 * kHour);
  ASSERT_FALSE(logs[1].dropped_any());
  EXPECT_EQ(logs[1].total_recorded(), kDesGoldenTotalEvents);
  EXPECT_EQ(event_log_checksum(logs[1]), kDesGoldenChecksum)
      << "batched engine diverged from the pinned sequential trajectory";
  // And the neighbours match their own sequential runs.
  for (const std::size_t r : {std::size_t{0}, std::size_t{2}}) {
    EventLog ref(1 << 18);
    DesModel model(Parameters{}, seeds[r]);
    model.set_event_log(&ref);
    (void)model.run(0.0, 60.0 * kHour);
    EXPECT_EQ(event_log_checksum(logs[r]), event_log_checksum(ref)) << "rep " << r;
  }
}

TEST(DesBatch, EventCountsMatchSequential) {
  const std::vector<std::uint64_t> seeds = {7ULL, 8ULL};
  DesBatch batch(Parameters{}, seeds);
  std::vector<EventCounts> counts(seeds.size());
  for (std::size_t r = 0; r < seeds.size(); ++r) batch.set_event_counts(r, &counts[r]);
  (void)batch.run(0.0, 30.0 * kHour);
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    EventCounts ref;
    DesModel model(Parameters{}, seeds[r]);
    model.set_event_counts(&ref);
    (void)model.run(0.0, 30.0 * kHour);
    for (std::size_t k = 0; k < ref.counts.size(); ++k) {
      EXPECT_EQ(counts[r].counts[k], ref.counts[k]) << "rep " << r << " kind " << k;
    }
  }
}

TEST(DesBatch, BudgetThrowsAtSameEventAsSequential) {
  // The fire budget must trip after the same number of fired events; the
  // sequential count below the cap pins where the batched engine throws.
  DesModel probe(Parameters{}, 99ULL);
  (void)probe.run(0.0, 20.0 * kHour);
  const std::uint64_t fired = probe.queue_stats().fired;
  ASSERT_GT(fired, 10ULL);

  DesBatch ok_batch(Parameters{}, {99ULL});
  ok_batch.set_event_budget(fired);  // exactly enough
  EXPECT_NO_THROW((void)ok_batch.run(0.0, 20.0 * kHour));

  DesBatch tight(Parameters{}, {99ULL});
  tight.set_event_budget(fired - 1);
  EXPECT_THROW((void)tight.run(0.0, 20.0 * kHour), ckptsim::sim::EventBudgetExceeded);
}

RunSpec quick_spec(std::size_t reps) {
  RunSpec spec;
  spec.transient = 5.0 * kHour;
  spec.horizon = 60.0 * kHour;
  spec.replications = reps;
  spec.seed = 20260808;
  return spec;
}

void expect_run_result_eq(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.replications, b.replications);
  expect_bits_eq(a.useful_fraction.mean, b.useful_fraction.mean, "ci mean");
  expect_bits_eq(a.useful_fraction.half_width, b.useful_fraction.half_width, "ci half_width");
  expect_bits_eq(a.fraction_replicates.mean(), b.fraction_replicates.mean(), "frac mean");
  expect_bits_eq(a.fraction_replicates.variance(), b.fraction_replicates.variance(),
                 "frac variance");
  expect_bits_eq(a.gross_replicates.mean(), b.gross_replicates.mean(), "gross mean");
  expect_bits_eq(a.total_useful_work, b.total_useful_work, "total_useful_work");
  expect_bits_eq(a.mean_breakdown.executing, b.mean_breakdown.executing, "mean executing");
  expect_bits_eq(a.mean_breakdown.checkpointing, b.mean_breakdown.checkpointing,
                 "mean checkpointing");
  expect_bits_eq(a.mean_breakdown.recovering, b.mean_breakdown.recovering, "mean recovering");
  expect_bits_eq(a.mean_breakdown.rebooting, b.mean_breakdown.rebooting, "mean rebooting");
  expect_counters_eq(a.totals, b.totals);
}

/// A private snapshot directory: setting `snapshot_every_events` is what
/// moves DES replications onto DesModel's event queue.  The period is far
/// beyond any test's event count, so nothing is ever written — the spec
/// only selects the engine.
struct EventQueuePath {
  std::string dir;
  explicit EventQueuePath(const std::string& name)
      : dir(std::string(::testing::TempDir()) + "ckptsim_desbatch_" + name + "_" +
            std::to_string(::getpid())) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~EventQueuePath() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  [[nodiscard]] RunSpec apply(RunSpec spec) const {
    spec.snapshot_every_events = std::uint64_t{1} << 40;
    spec.snapshot_dir = dir;
    return spec;
  }
};

void expect_failures_eq(const std::vector<ckptsim::ReplicationFailure>& a,
                        const std::vector<ckptsim::ReplicationFailure>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].replication, b[i].replication);
    EXPECT_EQ(a[i].attempts, b[i].attempts);
    EXPECT_EQ(a[i].code, b[i].code);
    EXPECT_EQ(a[i].message, b[i].message);
  }
}

TEST(DesBatch, RunReplicationMatchesDesModelAcrossConfigs) {
  // run_replication without a snapshot runs the fixed-slot engine; it must
  // report exactly what DesModel::run does, telemetry included.
  constexpr std::uint64_t kMaster = 0xB417ULL;
  constexpr double kTransient = 2.0 * kHour;
  constexpr double kHorizon = 40.0 * kHour;
  for (const auto& [name, params] : grid()) {
    SCOPED_TRACE(name);
    for (std::size_t r = 0; r < 2; ++r) {
      SCOPED_TRACE("rep " + std::to_string(r));
      const std::uint64_t seed = ckptsim::sim::replication_seed(kMaster, r);
      ckptsim::obs::ReplicationProbe probe;
      const ReplicationResult fixed = ckptsim::run_replication(
          params, EngineKind::kDes, seed, kTransient, kHorizon, &probe);
      EventCounts ref_counts;
      DesModel model(params, seed);
      model.set_event_counts(&ref_counts);
      const ReplicationResult seq = model.run(kTransient, kHorizon);
      expect_result_eq(fixed, seq);
      for (std::size_t k = 0; k < ref_counts.counts.size(); ++k) {
        EXPECT_EQ(probe.events.counts[k], ref_counts.counts[k]) << "kind " << k;
      }
      const ckptsim::sim::QueueStats ss = model.queue_stats();
      EXPECT_EQ(probe.queue.scheduled, ss.scheduled);
      EXPECT_EQ(probe.queue.fired, ss.fired);
      EXPECT_EQ(probe.queue.cancelled, ss.cancelled);
      EXPECT_EQ(probe.queue.peak_size, ss.peak_size);
    }
  }
}

TEST(DesBatch, RunModelMatchesEventQueuePathAcrossJobs) {
  // Fixed-slot run_model at 1 and 4 workers against the event-queue path:
  // uneven work per worker must still aggregate to the same bits.
  const EventQueuePath eq("jobs");
  const RunResult ref = run_model(Parameters{}, eq.apply(quick_spec(6)));
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RunSpec spec = quick_spec(6);
    spec.exec.jobs = jobs;
    expect_run_result_eq(run_model(Parameters{}, spec), ref);
  }
}

TEST(DesBatch, RunModelMatchesEventQueuePathUnderAdaptiveStopping) {
  const EventQueuePath eq("adaptive");
  RunSpec a = quick_spec(4);
  a.sequential.rel_precision = 0.2;
  a.sequential.min_replications = 3;
  a.sequential.max_replications = 12;
  RunSpec b = a;
  b.exec.jobs = 2;
  const RunResult ra = run_model(Parameters{}, eq.apply(a));
  const RunResult rb = run_model(Parameters{}, b);
  EXPECT_EQ(ra.rounds, rb.rounds);
  expect_run_result_eq(ra, rb);
}

TEST(DesBatch, SweepMatchesEventQueuePathFieldByField) {
  const EventQueuePath eq("sweep");
  const std::vector<double> xs = {8192.0, 65536.0, 262144.0};
  const auto apply = [](Parameters p, double x) {
    p.num_processors = static_cast<std::uint64_t>(x);
    return p;
  };
  RunSpec spec = quick_spec(3);
  spec.exec.jobs = 2;
  const ckptsim::SweepSeries fixed = ckptsim::sweep("procs", Parameters{}, xs, apply, spec);
  const ckptsim::SweepSeries queued =
      ckptsim::sweep("procs", Parameters{}, xs, apply, eq.apply(spec));
  EXPECT_EQ(fixed.label, queued.label);
  ASSERT_EQ(fixed.points.size(), queued.points.size());
  for (std::size_t p = 0; p < fixed.points.size(); ++p) {
    SCOPED_TRACE("point " + std::to_string(p));
    expect_bits_eq(fixed.points[p].x, queued.points[p].x, "x");
    EXPECT_EQ(ckptsim::parameters_field_string(fixed.points[p].params),
              ckptsim::parameters_field_string(queued.points[p].params));
    expect_run_result_eq(fixed.points[p].result, queued.points[p].result);
    EXPECT_EQ(fixed.points[p].result.rounds, queued.points[p].result.rounds);
    EXPECT_TRUE(fixed.points[p].result.failures.clean());
    EXPECT_TRUE(queued.points[p].result.failures.clean());
  }
}

/// run_model's result, or the SimError it threw.
struct Captured {
  bool threw = false;
  ckptsim::ErrorCode code = ckptsim::ErrorCode::kModelError;
  std::string message;
  RunResult result;
};

Captured capture_run(const RunSpec& spec) {
  Captured c;
  try {
    c.result = run_model(Parameters{}, spec);
  } catch (const ckptsim::SimError& e) {
    c.threw = true;
    c.code = e.code();
    c.message = e.what();
  }
  return c;
}

TEST(DesBatch, WatchdogTripsAtSameEventOnBothPathsUnderEachPolicy) {
  // Budget = the exact event count of a middle replication: replications
  // needing more trip, the rest (that one included) finish.  Both engines
  // must draw that line at the same replications under every policy.
  constexpr std::size_t kReps = 6;
  const RunSpec base = quick_spec(kReps);
  std::vector<std::uint64_t> fired(kReps);
  for (std::size_t r = 0; r < kReps; ++r) {
    ckptsim::obs::ReplicationProbe probe;
    (void)ckptsim::run_replication(Parameters{}, EngineKind::kDes,
                                   ckptsim::sim::replication_seed(base.seed, r), base.transient,
                                   base.horizon, &probe);
    fired[r] = probe.queue.fired;
  }
  std::vector<std::uint64_t> sorted = fired;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t budget = sorted[kReps / 2];
  std::vector<std::size_t> over;
  for (std::size_t r = 0; r < kReps; ++r) {
    if (fired[r] > budget) over.push_back(r);
  }
  ASSERT_FALSE(over.empty());
  ASSERT_LT(over.size(), kReps);

  const EventQueuePath eq("watchdog");
  using Mode = ckptsim::FailurePolicy::Mode;
  for (const Mode mode : {Mode::kFailFast, Mode::kRetry, Mode::kSkip}) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(mode)));
    RunSpec spec = base;
    spec.watchdog.max_events = budget;
    spec.on_failure.mode = mode;
    const Captured fixed = capture_run(spec);
    const Captured queued = capture_run(eq.apply(spec));
    ASSERT_EQ(fixed.threw, queued.threw);
    EXPECT_EQ(fixed.code, queued.code);
    EXPECT_EQ(fixed.message, queued.message);
    if (mode == Mode::kFailFast) {
      ASSERT_TRUE(fixed.threw);
      EXPECT_EQ(fixed.code, ckptsim::ErrorCode::kEventBudgetExceeded);
      EXPECT_NE(fixed.message.find("replication " + std::to_string(over.front()) + " "),
                std::string::npos)
          << fixed.message;
    }
    if (mode == Mode::kSkip) {
      ASSERT_FALSE(fixed.threw);
      ASSERT_EQ(fixed.result.failures.skipped.size(), over.size());
      for (std::size_t i = 0; i < over.size(); ++i) {
        EXPECT_EQ(fixed.result.failures.skipped[i].replication, over[i]);
      }
    }
    if (fixed.threw) continue;
    expect_run_result_eq(fixed.result, queued.result);
    expect_failures_eq(fixed.result.failures.skipped, queued.result.failures.skipped);
    expect_failures_eq(fixed.result.failures.recovered, queued.result.failures.recovered);
  }
}

TEST(DesBatch, SchedulerKindIsResultInvariantThroughRunModel) {
  // The calendar queue is a pure performance knob: heap and calendar runs
  // of both event-queue engines aggregate to identical bits.  Plain DES
  // runs on fixed slots, so the DES half forces the event-queue path.
  const EventQueuePath eq("scheduler");
  Parameters small;
  small.num_processors = 4096;
  for (const EngineKind engine : {EngineKind::kDes, EngineKind::kSan}) {
    SCOPED_TRACE(engine == EngineKind::kDes ? "des" : "san");
    RunSpec heap = quick_spec(3);
    if (engine == EngineKind::kSan) heap.horizon = 30.0 * kHour;
    if (engine == EngineKind::kDes) heap = eq.apply(heap);
    RunSpec cal = heap;
    cal.scheduler = ckptsim::sim::SchedulerKind::kCalendar;
    expect_run_result_eq(run_model(small, cal, engine), run_model(small, heap, engine));
  }
}

TEST(DesBatch, RejectsTraceDrivenParameters) {
  // The slot array has no trace cursor: it must refuse rather than
  // simulate random failures in place of the recorded ones.
  Parameters p;
  p.failure_trace_path = "failures.csv";
  EXPECT_THROW(DesBatch(p, {1ULL}), std::invalid_argument);
}

TEST(DesBatch, RejectsProactiveParameters) {
  Parameters p;
  p.predictor_enabled = true;
  EXPECT_THROW(DesBatch(p, {1ULL}), std::invalid_argument);
  Parameters q;
  q.proactive_policy = ckptsim::ProactivePolicy::kMigrate;
  EXPECT_THROW(DesBatch(q, {1ULL}), std::invalid_argument);
}

}  // namespace
