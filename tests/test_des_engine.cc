// The DES engine (DesModel on its fixed-slot pending set).
//
// Pinned trajectories: the engine's output at fixed seeds, reduced to
// FNV-1a digests and committed as constants.  The digests cover every bit
// of each ReplicationResult (doubles rendered %.17g), the per-kind
// EventCounts, the queue telemetry (scheduled / fired / cancelled / live
// peak) and the full EventLog, for the configurations that exercise
// distinct handler paths, the node-level subclass, job-completion mode and
// trace replay.  The grid constants were captured from the event-queue
// engine this one replaced; the application-cycle edge cases and the
// unlogged job runs were captured from the slot engine before its
// application events got their own loop.  Any change to event order, RNG
// consumption or sampling moves a constant; re-pin only for an intentional
// model change (see test_golden_trajectory.cc for the protocol).
//
// Below the pins: the watchdog budget, the fire-budget contract under each
// failure policy, the scheduling checks on event times (non-finite and
// past times are errors), the pending set
// driven beside a reference model through seeded slot scripts, and runs
// without an event log checked against the same runs with one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fault.h"
#include "src/core/runner.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/nodelevel/node_level_model.h"
#include "src/obs/metrics.h"
#include "src/proactive/proactive_model.h"
#include "src/sim/rng.h"
#include "src/snapshot/state_io.h"
#include "src/trace/event_log.h"

namespace {

using ckptsim::CoordinationMode;
using ckptsim::DesModel;
using ckptsim::EngineKind;
using ckptsim::FailureDistribution;
using ckptsim::NodeLevelModel;
using ckptsim::Parameters;
using ckptsim::ReplicationResult;
using ckptsim::RunCounters;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::SpatialCorrelation;
using ckptsim::sim::fnv1a64;
using ckptsim::trace::EventCounts;
using ckptsim::trace::EventLog;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;
using ckptsim::units::kYear;

constexpr double kTransient = 2.0 * kHour;
constexpr double kHorizon = 40.0 * kHour;
constexpr std::uint64_t kMaster = 0xB417ULL;

/// Every field of a ReplicationResult, doubles at full precision.
std::string render(const ReplicationResult& r) {
  const RunCounters& c = r.counters;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%" PRIu64 ",%" PRIu64 ",%" PRIu64
                ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                ",%" PRIu64 ",%" PRIu64 ",%" PRIu64,
                r.useful_fraction, r.gross_execution_fraction, r.observed_span,
                r.breakdown.executing, r.breakdown.checkpointing, r.breakdown.recovering,
                r.breakdown.rebooting, c.compute_failures, c.extra_failures, c.io_failures,
                c.master_aborts, c.ckpt_initiated, c.ckpt_dumped, c.ckpt_full,
                c.ckpt_incremental, c.ckpt_committed, c.ckpt_aborted_timeout,
                c.ckpt_aborted_failure, c.ckpt_aborted_io, c.recoveries_started,
                c.recoveries_completed, c.recovery_restarts, c.stage1_reads, c.reboots,
                c.prop_windows);
  return buf;
}

std::string render(const EventCounts& counts) {
  std::string s;
  for (const std::uint64_t n : counts.counts) s += std::to_string(n) + ",";
  return s;
}

/// Same rendering as the golden-trajectory checksum.
std::uint64_t log_checksum(const EventLog& log) {
  std::string s;
  s.reserve(log.size() * 48);
  char buf[96];
  for (const auto& e : log.events()) {
    std::snprintf(buf, sizeof buf, "%.17g|%u|%.17g;", e.time, static_cast<unsigned>(e.kind),
                  e.value);
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "#%llu", static_cast<unsigned long long>(log.total_recorded()));
  s += buf;
  return fnv1a64(s);
}

/// One pinned replication.
struct Pin {
  const char* config;
  std::size_t rep;
  std::uint64_t result;  ///< fnv1a64(render(ReplicationResult))
  std::uint64_t counts;  ///< fnv1a64(render(EventCounts))
  std::uint64_t scheduled, fired, cancelled, peak_size;
  std::uint64_t log;     ///< log_checksum of the full trajectory
};

/// What one replication produced, in the units the pins use.
struct Observed {
  std::uint64_t result = 0, counts = 0, scheduled = 0, fired = 0, cancelled = 0, peak_size = 0;
  std::uint64_t log = 0;
  std::string text;  ///< the result rendering, for failure messages
};

void expect_matches(const Observed& o, const Pin& pin, bool check_log) {
  const auto row = [&o, &pin] {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", %zu, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64 "ULL}",
                  pin.config, pin.rep, o.result, o.counts, o.scheduled, o.fired, o.cancelled,
                  o.peak_size, o.log);
    return std::string(buf) + "\n  result: " + o.text;
  };
  EXPECT_EQ(o.result, pin.result) << row();
  EXPECT_EQ(o.counts, pin.counts) << row();
  EXPECT_EQ(o.scheduled, pin.scheduled) << row();
  EXPECT_EQ(o.fired, pin.fired) << row();
  EXPECT_EQ(o.cancelled, pin.cancelled) << row();
  EXPECT_EQ(o.peak_size, pin.peak_size) << row();
  if (check_log) {
    EXPECT_EQ(o.log, pin.log) << row();
  }
}

Observed observe_model(DesModel& model, double transient, double horizon) {
  EventLog log(1 << 18);
  EventCounts counts;
  model.set_event_log(&log);
  model.set_event_counts(&counts);
  const ReplicationResult r = model.run(transient, horizon);
  EXPECT_FALSE(log.dropped_any());
  Observed o;
  o.text = render(r);
  o.result = fnv1a64(o.text);
  o.counts = fnv1a64(render(counts));
  const ckptsim::sim::QueueStats q = model.queue_stats();
  o.scheduled = q.scheduled;
  o.fired = q.fired;
  o.cancelled = q.cancelled;
  o.peak_size = q.peak_size;
  o.log = log_checksum(log);
  return o;
}

/// The driver path: run_replication with a telemetry probe (no event log).
Observed observe_runner(const Parameters& params, std::uint64_t seed) {
  ckptsim::obs::ReplicationProbe probe;
  const ReplicationResult r =
      ckptsim::run_replication(params, EngineKind::kDes, seed, kTransient, kHorizon, &probe);
  Observed o;
  o.text = render(r);
  o.result = fnv1a64(o.text);
  o.counts = fnv1a64(render(probe.events));
  o.scheduled = probe.queue.scheduled;
  o.fired = probe.queue.fired;
  o.cancelled = probe.queue.cancelled;
  o.peak_size = probe.queue.peak_size;
  return o;
}

/// The model configurations that exercise distinct handler paths: the
/// defaults, correlated propagation windows, the generic-correlated toggle
/// (both smooth and phase-switching), Weibull interarrivals, incremental
/// dump chains, synchronous FS writes, and a nonzero coordination timeout.
/// Then the application-cycle edge cases: writes that outlast the 3-minute
/// cycle (400 MB per node is a 204.8 s write), so bursts queue behind them;
/// bursts with no data to write; no bursts at all (compute fraction 1);
/// and a write that ends exactly when the next burst begins (compute
/// fraction 0.5 with a 90 s write), a tie broken by insertion order.
Parameters config(const std::string& name) {
  Parameters p;
  if (name == "long_writes") {
    p.app_io_data_per_node = 400.0 * ckptsim::units::kMB;
  } else if (name == "no_app_data") {
    p.app_io_data_per_node = 0.0;
  } else if (name == "compute_only") {
    p.compute_fraction = 1.0;
  } else if (name == "toggle_write_tie") {
    p.compute_fraction = 0.5;
    p.app_io_data_per_node = 175781250.0;  // 64 nodes x 175.78125 MB / 125 MB/s = 90 s
  } else if (name == "correlated") {
    p.prob_correlated = 0.3;
    p.correlated_window = 5.0 * kMinute;
  } else if (name == "generic_smooth") {
    p.generic_correlated_coefficient = 0.6;
  } else if (name == "generic_toggle") {
    p.generic_correlated_coefficient = 0.6;
    p.generic_correlated_smooth = false;
  } else if (name == "weibull") {
    p.failure_distribution = FailureDistribution::kWeibull;
    p.weibull_shape = 0.7;
  } else if (name == "incremental") {
    p.incremental_size_fraction = 0.25;
    p.full_checkpoint_period = 4;
  } else if (name == "sync_fs_write") {
    p.background_fs_write = false;
  } else if (name == "timeout_maxexp") {
    p.timeout = 30.0;
    p.coordination = CoordinationMode::kMaxOfExponentials;
  }
  return p;
}

// 8 configurations x replications 0 and 1 of master seed 0xB417, 2 h
// transient, 40 h horizon.
constexpr Pin kGridPins[] = {
    {"defaults", 0, 0xfdc9d34e1ec8349cULL, 0x8de32fedd627c819ULL,
     2503, 2388, 111, 6, 0x5c1ad16af373b93fULL},
    {"defaults", 1, 0xe1cab0fc4a43951dULL, 0x5d34650275233c28ULL,
     2506, 2384, 117, 6, 0xbd5554453988164dULL},
    {"correlated", 0, 0xe94eef5dbb5aa5c6ULL, 0xa0ec0491348677c5ULL,
     3074, 2697, 371, 8, 0x9326a397c56047a5ULL},
    {"correlated", 1, 0x9acba0a7b2c1367eULL, 0xb5319dd031515a94ULL,
     3132, 2672, 455, 8, 0xf7c5f673a84a9f21ULL},
    {"generic_smooth", 0, 0xd0f5409b88edb6baULL, 0xfbbcc9ca01a1f9fcULL,
     17314, 9458, 7851, 6, 0xfcf3f23487d1a6b9ULL},
    {"generic_smooth", 1, 0xf663823397edd317ULL, 0xf844052ed3dfe571ULL,
     18890, 9718, 9167, 6, 0xc6871fae91bc9da4ULL},
    {"generic_toggle", 0, 0xf6326373e0338d58ULL, 0x09b252c5743fee2eULL,
     21387, 10998, 10383, 8, 0xe2d35766ca774dcfULL},
    {"generic_toggle", 1, 0x1bbd38f344bf59b6ULL, 0xefd5b5d1e553f203ULL,
     21467, 11013, 10448, 8, 0x1bbfd2dc7b294fcdULL},
    {"weibull", 0, 0x6d2a689eb20f45efULL, 0x6e0bf9823a94f713ULL,
     2532, 2417, 111, 6, 0xd57f8899f49aa341ULL},
    {"weibull", 1, 0xe51162237b16101cULL, 0xfe7e1a9ec86043d9ULL,
     2529, 2404, 120, 6, 0xe9153a86f852061cULL},
    {"incremental", 0, 0x1e7b9ee11476ac21ULL, 0xf284612f2c773730ULL,
     2527, 2410, 113, 6, 0x972dde1466768157ULL},
    {"incremental", 1, 0xc2b2900f4d5c2e38ULL, 0xa8d93f44c4e1e966ULL,
     2531, 2409, 117, 6, 0x40c52ddf189f56d4ULL},
    {"sync_fs_write", 0, 0x39dd1c6381ad9925ULL, 0x651a78164be1e132ULL,
     2382, 2269, 109, 6, 0xc518aceb9065d6b5ULL},
    {"sync_fs_write", 1, 0xfdd5786116e18569ULL, 0x7baf14d8a631a555ULL,
     2393, 2273, 115, 6, 0xa4497eb4c3c6d89eULL},
    {"timeout_maxexp", 0, 0xf58ead20e2e3f88cULL, 0xdd87d1d65ad4b7f3ULL,
     2584, 2402, 177, 7, 0x94c7960a474a5aecULL},
    {"timeout_maxexp", 1, 0x5611e089519c3195ULL, 0x47c9fddda9949007ULL,
     2595, 2410, 180, 7, 0xf18caf3b5e8d65bbULL},
};

TEST(DesEngine, PinnedTrajectoriesAcrossConfigs) {
  for (const Pin& pin : kGridPins) {
    SCOPED_TRACE(std::string(pin.config) + " rep " + std::to_string(pin.rep));
    DesModel model(config(pin.config), ckptsim::sim::replication_seed(kMaster, pin.rep));
    expect_matches(observe_model(model, kTransient, kHorizon), pin, /*check_log=*/true);
  }
}

TEST(DesEngine, RunReplicationReportsPinnedResultsAndTelemetry) {
  for (const Pin& pin : kGridPins) {
    SCOPED_TRACE(std::string(pin.config) + " rep " + std::to_string(pin.rep));
    const Observed o =
        observe_runner(config(pin.config), ckptsim::sim::replication_seed(kMaster, pin.rep));
    expect_matches(o, pin, /*check_log=*/false);
  }
}

// The application-cycle edge cases, same seeds and window as the grid.
constexpr Pin kAppCyclePins[] = {
    {"long_writes", 0, 0x51f2146f5ab5250eULL, 0x7229385b56376380ULL,
     2426, 2311, 110, 6, 0xd3b1df6db93f6939ULL},
    {"long_writes", 1, 0xc870fe888c67b6e0ULL, 0x038d074e1af8db68ULL,
     2434, 2311, 117, 6, 0x443d6d883200ac49ULL},
    {"no_app_data", 0, 0xfdc9d34e1ec8349cULL, 0x8de32fedd627c819ULL,
     1818, 1703, 111, 6, 0x5c1ad16af373b93fULL},
    {"no_app_data", 1, 0xe1cab0fc4a43951dULL, 0x5d34650275233c28ULL,
     1822, 1700, 117, 6, 0xbd5554453988164dULL},
    {"compute_only", 0, 0xfdc9d34e1ec8349cULL, 0x4117e9dd2dfd567bULL,
     365, 331, 30, 5, 0x7aaaca877f765eedULL},
    {"compute_only", 1, 0xe1cab0fc4a43951dULL, 0x229bf1cb2311ed1cULL,
     366, 328, 34, 5, 0x04c0102c7874e663ULL},
    {"toggle_write_tie", 0, 0xfdc9d34e1ec8349cULL, 0x19297ed24698512eULL,
     2513, 2398, 111, 6, 0x29249f49f8d73e63ULL},
    {"toggle_write_tie", 1, 0x4f2cdddec83c11deULL, 0x0f4c2e93e0ecb423ULL,
     2533, 2407, 120, 6, 0xb7a76117be1de6baULL},
};

TEST(DesEngine, ApplicationCycleEdgeCasesArePinned) {
  // The tie is exact only if the write and the compute phase are the same
  // double.
  const Parameters tie = config("toggle_write_tie");
  ASSERT_EQ(tie.app_fs_write_time(), tie.app_compute_phase());
  ASSERT_EQ(tie.app_compute_phase(), 90.0);
  ASSERT_EQ(config("long_writes").app_fs_write_time(), 204.8);
  for (const Pin& pin : kAppCyclePins) {
    SCOPED_TRACE(std::string(pin.config) + " rep " + std::to_string(pin.rep));
    const std::uint64_t seed = ckptsim::sim::replication_seed(kMaster, pin.rep);
    DesModel model(config(pin.config), seed);
    expect_matches(observe_model(model, kTransient, kHorizon), pin, /*check_log=*/true);
    expect_matches(observe_runner(config(pin.config), seed), pin, /*check_log=*/false);
  }
}

Parameters small_machine() {
  Parameters p;
  p.num_processors = 8192;  // 1024 nodes, 16 I/O groups
  p.mttf_node = 0.25 * kYear;
  return p;
}

TEST(DesEngine, NodeLevelTrajectoriesArePinned) {
  // Spatial correlation off exercises the per-node coordination maximum and
  // victim draws; on adds the group windows and their injected failures.
  SpatialCorrelation spatial;
  spatial.probability = 0.5;
  spatial.factor = 500.0;
  spatial.window = 180.0;
  {
    NodeLevelModel model(small_machine(), 7);
    const Pin pin{"node_level", 0, 0x2ea7fbb34a9a54a8ULL, 0xd1d6685678be9af9ULL,
                  12573, 12114, 454, 6, 0xf3bf8ee06b628488ULL};
    expect_matches(observe_model(model, 0.0, 200.0 * kHour), pin, true);
  }
  {
    NodeLevelModel model(small_machine(), spatial, 7);
    const Pin pin{"node_level_spatial", 0, 0x5005ac62fa67079dULL, 0x0c1bf573cded210cULL,
                  12561, 12030, 526, 8, 0xb2ef782b01de1162ULL};
    expect_matches(observe_model(model, 0.0, 200.0 * kHour), pin, true);
    EXPECT_EQ(model.spatial_windows(), 35u);
  }
}

/// Job-completion run: makespan plus the trajectory that produced it.
struct JobRun {
  double makespan = 0.0;
  std::uint64_t fired = 0;
  std::uint64_t log = 0;
  std::uint64_t counts = 0;  ///< fnv1a64(render(EventCounts))
  ckptsim::sim::QueueStats queue;
};

JobRun run_job(const Parameters& p, std::uint64_t seed, double work, double max_time,
               bool with_log = true) {
  EventLog log(1 << 18);
  EventCounts counts;
  DesModel model(p, seed);
  if (with_log) model.set_event_log(&log);
  model.set_event_counts(&counts);
  JobRun out;
  out.makespan = model.run_until_work(work, max_time);
  EXPECT_FALSE(log.dropped_any());
  out.queue = model.queue_stats();
  out.fired = out.queue.fired;
  out.log = log_checksum(log);
  out.counts = fnv1a64(render(counts));
  return out;
}

TEST(DesEngine, JobCompletionMakespansArePinned) {
  Parameters flaky;
  flaky.num_processors = 131072;  // system MTBF ~ 32 min: rollbacks re-arm the job event
  const JobRun done = run_job(flaky, 4, 20.0 * kHour, 4000.0 * kHour);
  EXPECT_EQ(done.makespan, 0x1.78250f4653f78p+17) << std::hexfloat << done.makespan;
  EXPECT_EQ(done.fired, 2548u);
  EXPECT_EQ(done.log, 0x7c848b892369abf6ULL) << std::hex << done.log;

  const JobRun missed = run_job(flaky, 5, 20.0 * kHour, 10.0 * kHour);
  EXPECT_TRUE(std::isinf(missed.makespan));
  EXPECT_EQ(missed.fired, 557u);
  EXPECT_EQ(missed.log, 0xeddca2fb780cd992ULL) << std::hex << missed.log;
}

TEST(DesEngine, JobCompletionWithoutAnEventLogIsPinned) {
  // The same job runs with and without an event log attached; both must
  // give the pinned makespan, per-kind counts and queue telemetry.
  struct JobPin {
    const char* config;
    std::uint64_t seed;
    double max_hours;
    double makespan;
    std::uint64_t counts, scheduled, fired, cancelled, peak_size;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const JobPin pins[] = {
      {"defaults", 4, 4000.0, 0x1.78250f4653f78p+17, 0x953f381b00f08cbbULL, 3002, 2548, 449, 7},
      {"long_writes", 4, 4000.0, 0x1.88de985948afcp+17, 0xf86412e1ade3c6a9ULL, 3039, 2570, 463,
       7},
      {"toggle_write_tie", 4, 4000.0, 0x1.78250f4653f78p+17, 0x670647a04a8c4af4ULL, 3035, 2581,
       449, 7},
      {"no_app_data", 6, 4000.0, 0x1.66de169696218p+17, 0xefb1a48cf1024fe8ULL, 2233, 1824, 404, 7},
      {"long_writes", 5, 10.0, kInf, 0x933db396a1f77f79ULL, 599, 535, 57, 7},
  };
  for (const JobPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.config) + " seed " + std::to_string(pin.seed));
    Parameters p = config(pin.config);
    p.num_processors = 131072;  // system MTBF ~ 32 min: rollbacks re-arm the job event
    const JobRun plain = run_job(p, pin.seed, 20.0 * kHour, pin.max_hours * kHour, false);
    const JobRun logged = run_job(p, pin.seed, 20.0 * kHour, pin.max_hours * kHour, true);
    for (const JobRun* run : {&plain, &logged}) {
      EXPECT_EQ(run->makespan, pin.makespan) << std::hexfloat << run->makespan;
      EXPECT_EQ(run->counts, pin.counts) << std::hex << "0x" << run->counts;
      EXPECT_EQ(run->queue.scheduled, pin.scheduled);
      EXPECT_EQ(run->queue.fired, pin.fired);
      EXPECT_EQ(run->queue.cancelled, pin.cancelled);
      EXPECT_EQ(run->queue.peak_size, pin.peak_size);
    }
  }
}

/// Trace file removed at scope exit.
struct TraceFile {
  std::string path;
  explicit TraceFile(const std::string& text)
      : path(std::string(::testing::TempDir()) + "ckptsim_des_engine_trace_" +
             std::to_string(::getpid()) + ".csv") {
    std::ofstream(path, std::ios::binary) << text;
  }
  ~TraceFile() { std::remove(path.c_str()); }
};

TEST(DesEngine, TraceReplayIsPinned) {
  // Recorded failures replace the independent renewal process; I/O, master
  // and correlated processes still draw from their streams.
  const TraceFile trace("node,time\n3,1800\n17,5400\n17,5400.5\n900,20000\n4,43210.25\n"
                        "12,90000\n600,120000\n8,140000.125\n");
  Parameters p;
  p.failure_trace_path = trace.path;
  const std::uint64_t seed = ckptsim::sim::replication_seed(kMaster, 0);
  const Pin pin{"trace", 0, 0xbe0f3774323c03a3ULL, 0x4d3215ada356447cULL,
                2695, 2605, 86, 6, 0x65503656c91038ffULL};
  DesModel model(p, seed);
  expect_matches(observe_model(model, kTransient, kHorizon), pin, true);
  expect_matches(observe_runner(p, seed), pin, false);
}

// --- watchdog -------------------------------------------------------------

TEST(DesEngine, BudgetOfExactlyTheEventCountPassesOneFewerThrows) {
  DesModel probe(Parameters{}, 99ULL);
  (void)probe.run(0.0, 20.0 * kHour);
  const std::uint64_t fired = probe.queue_stats().fired;
  ASSERT_GT(fired, 10ULL);

  DesModel exact(Parameters{}, 99ULL);
  exact.set_event_budget(fired);
  EXPECT_NO_THROW((void)exact.run(0.0, 20.0 * kHour));

  DesModel tight(Parameters{}, 99ULL);
  tight.set_event_budget(fired - 1);
  EXPECT_THROW((void)tight.run(0.0, 20.0 * kHour), ckptsim::sim::EventBudgetExceeded);
  EXPECT_EQ(tight.queue_stats().fired, fired - 1);
}

RunSpec quick_spec(std::size_t reps) {
  RunSpec spec;
  spec.transient = 5.0 * kHour;
  spec.horizon = 60.0 * kHour;
  spec.replications = reps;
  spec.seed = 20260808;
  return spec;
}

TEST(DesEngine, WatchdogTripsOnTheSameReplicationsUnderEachPolicy) {
  // Budget = the exact event count of a middle replication: replications
  // needing more trip, the rest (that one included) finish.  Every policy
  // must draw that line at the same replications.
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

  using Mode = ckptsim::FailurePolicy::Mode;
  RunSpec spec = base;
  spec.watchdog.max_events = budget;
  spec.exec.jobs = 2;

  spec.on_failure.mode = Mode::kFailFast;
  try {
    (void)ckptsim::run_model(Parameters{}, spec);
    ADD_FAILURE() << "fail-fast run should have thrown";
  } catch (const ckptsim::SimError& e) {
    EXPECT_EQ(e.code(), ckptsim::ErrorCode::kEventBudgetExceeded);
    EXPECT_NE(std::string(e.what()).find("replication " + std::to_string(over.front()) + " "),
              std::string::npos)
        << e.what();
  }

  spec.on_failure.mode = Mode::kSkip;
  const RunResult skipped = ckptsim::run_model(Parameters{}, spec);
  ASSERT_EQ(skipped.failures.skipped.size(), over.size());
  for (std::size_t i = 0; i < over.size(); ++i) {
    EXPECT_EQ(skipped.failures.skipped[i].replication, over[i]);
    EXPECT_EQ(skipped.failures.skipped[i].code, ckptsim::ErrorCode::kEventBudgetExceeded);
  }
  EXPECT_EQ(skipped.replications, kReps - over.size());

  // Retry reseeds a deterministic failure: each over-budget replication
  // either recovers on a fresh stream or exhausts its retries.
  spec.on_failure.mode = Mode::kRetry;
  spec.on_failure.max_retries = 3;
  try {
    const RunResult retried = ckptsim::run_model(Parameters{}, spec);
    ASSERT_EQ(retried.failures.recovered.size(), over.size());
    for (std::size_t i = 0; i < over.size(); ++i) {
      EXPECT_EQ(retried.failures.recovered[i].replication, over[i]);
      EXPECT_EQ(retried.failures.recovered[i].code, ckptsim::ErrorCode::kEventBudgetExceeded);
    }
  } catch (const ckptsim::SimError& e) {
    EXPECT_EQ(e.code(), ckptsim::ErrorCode::kRetriesExhausted);
    bool names_over = false;
    for (const std::size_t r : over) {
      names_over |= std::string(e.what()).find("replication " + std::to_string(r) + " ") !=
                    std::string::npos;
    }
    EXPECT_TRUE(names_over) << e.what();
  }
}

// --- scheduling checks ------------------------------------------------------

/// A model whose coordination latency is `latency` — NaN and negative
/// values model a broken sampler.
class FixedCoordination final : public DesModel {
 public:
  FixedCoordination(const Parameters& p, std::uint64_t seed, double latency)
      : DesModel(p, seed), latency_(latency) {}

 protected:
  double sample_coordination_time() override { return latency_; }

 private:
  double latency_;
};

TEST(DesEngine, NonFiniteOrPastEventTimeThrowsInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double latency : {nan, inf, -1.0}) {
    SCOPED_TRACE(latency);
    FixedCoordination model(Parameters{}, 1, latency);
    EXPECT_THROW((void)model.run(0.0, 10.0 * kHour), std::invalid_argument);
  }
  FixedCoordination sane(Parameters{}, 1, 60.0);
  EXPECT_NO_THROW((void)sane.run(0.0, 10.0 * kHour));
}

TEST(DesEngine, GuardedReplicationReportsANanEventTimeAsAStructuredFailure) {
  const RunSpec spec = quick_spec(1);
  ckptsim::FailurePolicy skip;
  skip.mode = ckptsim::FailurePolicy::Mode::kSkip;
  const auto out = ckptsim::detail::guard_attempts(
      spec.seed, 0, skip, nullptr, {}, nullptr,
      [&spec](std::uint64_t seed, ckptsim::obs::ReplicationProbe*) {
        FixedCoordination model(Parameters{}, seed, std::numeric_limits<double>::quiet_NaN());
        return model.run(spec.transient, spec.horizon);
      });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.failure.replication, 0u);
  EXPECT_EQ(out.failure.code, ckptsim::ErrorCode::kModelError);
  EXPECT_NE(out.failure.message.find("non-finite event time"), std::string::npos)
      << out.failure.message;
}

/// Records the clock when the warm-up baselines are captured.
class WarmupClock final : public DesModel {
 public:
  using DesModel::DesModel;
  double at_warmup = -1.0;

 protected:
  void on_warmup_captured() override { at_warmup = now(); }
};

TEST(DesEngine, RunUntilLandsTheClockOnTheHorizon) {
  // No event fires before the end of the warm-up, yet the clock must land
  // exactly on it, not stay at 0.
  Parameters p;
  p.compute_failures_enabled = false;
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  p.app_io_enabled = false;
  p.checkpoint_interval = 1000.0 * kHour;
  WarmupClock model(p, 3);
  const ReplicationResult r = model.run(kTransient, kHorizon);
  EXPECT_EQ(model.at_warmup, kTransient);
  EXPECT_EQ(r.useful_fraction, 1.0);
  EXPECT_EQ(model.queue_stats().fired, 0u);
}

// --- extension slots --------------------------------------------------------

/// Arms extension slot 0 every `period` seconds from the end of the warm-up
/// and counts the firings; the handler touches no model state.
class Ticker final : public DesModel {
 public:
  Ticker(const Parameters& p, std::uint64_t seed, double period)
      : DesModel(p, seed), period_(period) {}
  std::uint64_t ticks = 0;

 protected:
  void on_warmup_captured() override { schedule_in(extension_slot(0), period_); }
  void on_extension_event(std::size_t k) override {
    ++ticks;
    schedule_in(extension_slot(k), period_);
  }

 private:
  double period_;
};

TEST(DesEngine, ExtensionSlotFiresThroughTheVirtualWithoutTouchingTheModel) {
  const std::uint64_t seed = ckptsim::sim::replication_seed(kMaster, 0);
  DesModel base(Parameters{}, seed);
  const ReplicationResult want = base.run(kTransient, kHorizon);
  Ticker ticker(Parameters{}, seed, 1.0 * kHour);
  const ReplicationResult got = ticker.run(kTransient, kHorizon);
  EXPECT_EQ(render(got), render(want));
  // One tick per hour of the window, the last exactly at its end; the
  // next one stays armed.
  EXPECT_EQ(ticker.ticks, 40u);
  EXPECT_EQ(ticker.queue_stats().fired, base.queue_stats().fired + 40);
  EXPECT_EQ(ticker.queue_stats().scheduled, base.queue_stats().scheduled + 41);
}

/// Arms extension slot 0 at the end of the warm-up, `arms` times over; the
/// event is ignored when `handled`, else left to the base class.
class StrayExtension final : public DesModel {
 public:
  StrayExtension(const Parameters& p, std::uint64_t seed, int arms, bool handled)
      : DesModel(p, seed), arms_(arms), handled_(handled) {}

 protected:
  void on_warmup_captured() override {
    for (int i = 0; i < arms_; ++i) schedule_in(extension_slot(0), 60.0);
  }
  void on_extension_event(std::size_t k) override {
    if (!handled_) DesModel::on_extension_event(k);
  }

 private:
  int arms_;
  bool handled_;
};

TEST(DesEngine, ArmingAnArmedSlotThrowsLogicError) {
  // One event per slot is the invariant that replaced the event queue:
  // re-arming must fail loudly, never drop the pending event.
  StrayExtension once(Parameters{}, 1, 1, /*handled=*/true);
  EXPECT_NO_THROW((void)once.run(kTransient, kHorizon));
  StrayExtension twice(Parameters{}, 1, 2, /*handled=*/true);
  EXPECT_THROW((void)twice.run(kTransient, kHorizon), std::logic_error);
}

TEST(DesEngine, ExtensionEventWithoutAHandlerThrowsLogicError) {
  StrayExtension once(Parameters{}, 1, 1, /*handled=*/false);
  EXPECT_THROW((void)once.run(kTransient, kHorizon), std::logic_error);
}

// --- the pending set against a reference model ------------------------------

/// Reference model of the slot pending set's contract: a map ordered by
/// (time, insertion sequence), slow but plainly right, with at most one
/// pending event per slot.  Fires record (slot, time).
struct ReferenceSlots {
  using Key = std::pair<double, std::uint64_t>;
  static constexpr std::size_t kSlots = 4;
  std::map<Key, std::size_t> pending;
  std::optional<Key> armed[kSlots];
  std::uint64_t next_seq = 0;
  ckptsim::sim::QueueStats stats;
  std::vector<std::pair<std::size_t, double>> trace;

  void schedule(std::size_t k, double t) {
    const Key key{t, next_seq++};
    pending.emplace(key, k);
    armed[k] = key;
    ++stats.scheduled;
    stats.peak_size = std::max<std::uint64_t>(stats.peak_size, pending.size());
  }
  void cancel(std::size_t k) {
    if (!armed[k]) return;
    pending.erase(*armed[k]);
    armed[k].reset();
    ++stats.cancelled;
  }
  void fire_next() {
    const auto it = pending.begin();
    trace.emplace_back(it->second, it->first.first);
    armed[it->second].reset();
    pending.erase(it);
    ++stats.fired;
  }
};

/// Drives the extension slots from a seeded script beside a ReferenceSlots:
/// at the end of the warm-up it arms a few slots, and every extension event
/// pops the reference's next event, then arms free slots at times quantized
/// to whole minutes (so ties form across slots armed in non-index order),
/// cancels slots and re-arms the slot that just fired.  Past `max_fires`
/// the script stops arming and the pending events drain.  The handlers
/// touch no model state and draw from no model stream.
class ScriptedSlots final : public DesModel {
 public:
  ScriptedSlots(const Parameters& p, std::uint64_t seed, std::uint64_t script_seed,
                std::size_t max_fires)
      : DesModel(p, seed), gen_(script_seed), max_fires_(max_fires) {}

  ReferenceSlots ref;
  std::vector<std::pair<std::size_t, double>> fired;  ///< (slot, now()) as fired
  ckptsim::sim::QueueStats at_warmup;                  ///< base events only

 protected:
  void on_warmup_captured() override {
    at_warmup = queue_stats();
    for (int i = 0; i < 6; ++i) step(pick(gen_));
  }
  void on_extension_event(std::size_t k) override {
    fired.emplace_back(k, now());
    ref.fire_next();
    if (fired.size() >= max_fires_) return;
    if (coin(gen_) < 0.7) arm(k);
    const int ops = std::uniform_int_distribution<int>(0, 3)(gen_);
    for (int i = 0; i < ops; ++i) step(pick(gen_));
    if (ref.pending.empty()) arm(k);
  }

 private:
  void arm(std::size_t k) {
    if (ref.armed[k]) return;
    const double t = now() + kMinute * std::uniform_int_distribution<int>(0, 7)(gen_);
    schedule_at(extension_slot(k), t);
    ref.schedule(k, t);
  }
  void step(std::size_t k) {
    if (coin(gen_) < 0.7) {
      arm(k);
    } else {
      cancel(extension_slot(k));
      ref.cancel(k);
    }
  }

  std::mt19937_64 gen_;
  std::uniform_int_distribution<std::size_t> pick{0, ReferenceSlots::kSlots - 1};
  std::uniform_real_distribution<double> coin{0.0, 1.0};
  std::size_t max_fires_;
};

TEST(DesEngine, ExtensionSlotScriptsMatchTheReferenceOnAQuietModel) {
  // Every failure process and the application I/O are off and the first
  // checkpoint lies past the horizon, so the extension slots are the only
  // events that fire: fire order, clock and every queue counter must match
  // the reference exactly, whether the script is cut by the horizon
  // (events left pending past it) or drains before it.
  Parameters p;
  p.compute_failures_enabled = false;
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  p.app_io_enabled = false;
  p.checkpoint_interval = 1000.0 * kHour;
  ASSERT_EQ(ReferenceSlots::kSlots, 4u);
  for (const std::size_t max_fires : {std::size_t{100000}, std::size_t{1500}}) {
    for (const std::uint64_t script : {1ULL, 2ULL, 3ULL, 20261018ULL}) {
      SCOPED_TRACE("script " + std::to_string(script) + " max_fires " +
                   std::to_string(max_fires));
      ScriptedSlots model(p, 5, script, max_fires);
      (void)model.run(kTransient, kHorizon);
      ASSERT_GT(model.fired.size(), 1000u);
      EXPECT_EQ(model.fired, model.ref.trace);
      const ckptsim::sim::QueueStats s = model.queue_stats();
      const ckptsim::sim::QueueStats& base = model.at_warmup;
      EXPECT_EQ(base.fired, 0u);
      EXPECT_EQ(base.cancelled, 0u);
      EXPECT_EQ(s.scheduled, base.scheduled + model.ref.stats.scheduled);
      EXPECT_EQ(s.fired, model.ref.stats.fired);
      EXPECT_EQ(s.cancelled, model.ref.stats.cancelled);
      EXPECT_EQ(s.peak_size, std::max(base.peak_size, base.scheduled + model.ref.stats.peak_size));
      // What is still armed lies past the end of the run.
      const double t_end = kTransient + kHorizon;
      if (max_fires > model.fired.size()) {
        ASSERT_FALSE(model.ref.pending.empty());
        EXPECT_GT(model.ref.pending.begin()->first.first, t_end);
      } else {
        EXPECT_TRUE(model.ref.pending.empty());
        EXPECT_LT(model.fired.back().second, t_end);
      }
    }
  }
}

TEST(DesEngine, ExtensionSlotScriptsMatchTheReferenceBesideBaseEvents) {
  // On the default model the scripted events interleave with the protocol
  // and failure events.  The extension events still fire in reference order
  // at the reference times, the base trajectory is untouched, and the
  // counters are the plain model's plus the script's.
  const std::uint64_t seed = ckptsim::sim::replication_seed(kMaster, 0);
  DesModel base(Parameters{}, seed);
  const ReplicationResult want = base.run(kTransient, kHorizon);
  for (const std::uint64_t script : {4ULL, 5ULL}) {
    SCOPED_TRACE("script " + std::to_string(script));
    ScriptedSlots model(Parameters{}, seed, script, 100000);
    const ReplicationResult got = model.run(kTransient, kHorizon);
    ASSERT_GT(model.fired.size(), 1000u);
    EXPECT_EQ(model.fired, model.ref.trace);
    EXPECT_EQ(render(got), render(want));
    const ckptsim::sim::QueueStats s = model.queue_stats();
    const ckptsim::sim::QueueStats b = base.queue_stats();
    EXPECT_EQ(s.scheduled, b.scheduled + model.ref.stats.scheduled);
    EXPECT_EQ(s.fired, b.fired + model.ref.stats.fired);
    EXPECT_EQ(s.cancelled, b.cancelled + model.ref.stats.cancelled);
    EXPECT_GE(s.peak_size, b.peak_size);
  }
}

// --- unlogged runs against the event-log path ------------------------------

/// What one replication reports that could tell two event paths apart: the
/// result, the per-kind counts, the queue telemetry, and one digest per
/// post-fire hook call.
struct PathRun {
  std::string result;
  std::string counts;
  std::uint64_t scheduled = 0, fired = 0, cancelled = 0, peak_size = 0;
  std::vector<std::uint64_t> hooks;
};

/// Runs `go` on `model` with or without an event log attached.  A nonzero
/// `every` installs a post-fire hook every `every` events that records the
/// digest of the model's save_state bytes, or only the fired count when
/// `save_bytes` is false (save_state refuses armed extension slots).
template <typename Go>
PathRun observe_path(DesModel& model, bool with_log, std::uint64_t every, bool save_bytes,
                     Go&& go) {
  EventLog log(1 << 18);
  EventCounts counts;
  if (with_log) model.set_event_log(&log);
  model.set_event_counts(&counts);
  PathRun out;
  if (every != 0) {
    model.set_fire_hook(every, [&model, &out, save_bytes] {
      if (!save_bytes) {
        out.hooks.push_back(model.queue_stats().fired);
        return;
      }
      ckptsim::snapshot::StateWriter w;
      model.save_state(w);
      out.hooks.push_back(fnv1a64(w.bytes()));
    });
  }
  out.result = go();
  EXPECT_FALSE(log.dropped_any());
  out.counts = render(counts);
  const ckptsim::sim::QueueStats q = model.queue_stats();
  out.scheduled = q.scheduled;
  out.fired = q.fired;
  out.cancelled = q.cancelled;
  out.peak_size = q.peak_size;
  return out;
}

void expect_same_path(const PathRun& logged, const PathRun& plain, std::uint64_t every) {
  EXPECT_EQ(plain.result, logged.result);
  EXPECT_EQ(plain.counts, logged.counts);
  EXPECT_EQ(plain.scheduled, logged.scheduled);
  EXPECT_EQ(plain.fired, logged.fired);
  EXPECT_EQ(plain.cancelled, logged.cancelled);
  EXPECT_EQ(plain.peak_size, logged.peak_size);
  EXPECT_EQ(logged.hooks.size(), every == 0 ? 0 : logged.fired / every);
  ASSERT_EQ(plain.hooks.size(), logged.hooks.size());
  for (std::size_t i = 0; i < plain.hooks.size(); ++i) {
    ASSERT_EQ(plain.hooks[i], logged.hooks[i]) << "hook call " << i << " of every " << every;
  }
}

constexpr std::uint64_t kHookPeriods[] = {0, 1, 7, 1000};

/// save_state renders every RNG stream as text, so a hook on every event
/// dominates these runs: they observe 10 hours after the warm-up.
constexpr double kPathHorizon = 10.0 * kHour;

class UnloggedPath : public ::testing::TestWithParam<const char*> {};

TEST_P(UnloggedPath, MatchesTheEventLogPath) {
  // An attached event log sends every event through the ordinary handlers:
  // that is the reference path.  Without one, every result, count, queue
  // statistic, hook call and snapshot byte must be the same, with hooks
  // every 1, 7 and 1000 events (hooks see the model mid-run, so they catch
  // an insertion sequence a result would not).
  const std::string name = GetParam();
  const TraceFile trace("node,time\n3,1800\n17,5400\n17,5400.5\n900,20000\n4,40000.25\n");
  Parameters params = config(name);
  if (name == "trace") params.failure_trace_path = trace.path;
  for (const std::size_t rep : {0, 1}) {
    const std::uint64_t seed = ckptsim::sim::replication_seed(kMaster, rep);
    for (const std::uint64_t every : kHookPeriods) {
      SCOPED_TRACE("rep " + std::to_string(rep) + " hook every " + std::to_string(every));
      const auto path = [&params, seed, every](bool with_log) {
        DesModel model(params, seed);
        return observe_path(model, with_log, every, true,
                            [&model] { return render(model.run(kTransient, kPathHorizon)); });
      };
      expect_same_path(path(true), path(false), every);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DesEngine, UnloggedPath,
                         ::testing::Values("defaults", "correlated", "generic_smooth",
                                           "generic_toggle", "weibull", "incremental",
                                           "sync_fs_write", "timeout_maxexp", "long_writes",
                                           "no_app_data", "compute_only", "toggle_write_tie",
                                           "trace"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

std::string render(const ckptsim::proactive::ProactiveReplication& r) {
  const ckptsim::proactive::ProactiveCounters& c = r.pro;
  return render(r.rep) + "|" + std::to_string(c.predictions_true) + "," +
         std::to_string(c.false_alarms) + "," + std::to_string(c.proactive_ckpts) + "," +
         std::to_string(c.actions_skipped) + "," + std::to_string(c.migrations) + "," +
         std::to_string(c.migrations_wasted) + "," + std::to_string(c.failures_absorbed) + "," +
         std::to_string(c.rescales) + "," + std::to_string(c.repairs);
}

TEST(DesEngine, UnloggedSubclassRunsMatchTheEventLogPath) {
  // The node-level and proactive models arm extension slots, which
  // save_state refuses, so their hooks record only the fired count.
  SpatialCorrelation spatial;
  spatial.probability = 0.5;
  spatial.factor = 500.0;
  spatial.window = 180.0;
  Parameters predicted;
  predicted.predictor_enabled = true;
  predicted.predictor_precision = 0.8;
  predicted.predictor_recall = 0.7;
  predicted.predictor_lead_time = 5.0 * kMinute;
  for (const std::size_t rep : {0, 1}) {
    const std::uint64_t seed = ckptsim::sim::replication_seed(kMaster, rep);
    for (const std::uint64_t every : kHookPeriods) {
      for (const double probability : {0.0, 0.5}) {
        SCOPED_TRACE("node level, spatial " + std::to_string(probability) + " rep " +
                     std::to_string(rep) + " hook every " + std::to_string(every));
        SpatialCorrelation s = spatial;
        s.probability = probability;
        const auto path = [&s, seed, every](bool with_log) {
          NodeLevelModel model(small_machine(), s, seed);
          return observe_path(model, with_log, every, false,
                              [&model] { return render(model.run(0.0, 100.0 * kHour)); });
        };
        expect_same_path(path(true), path(false), every);
      }
      for (const ckptsim::ProactivePolicy policy :
           {ckptsim::ProactivePolicy::kNone, ckptsim::ProactivePolicy::kProactiveCheckpoint,
            ckptsim::ProactivePolicy::kMigrate, ckptsim::ProactivePolicy::kMalleable}) {
        SCOPED_TRACE(std::string("proactive ") + ckptsim::to_string(policy) + " rep " +
                     std::to_string(rep) + " hook every " + std::to_string(every));
        Parameters p = predicted;
        p.proactive_policy = policy;
        const auto path = [&p, seed, every](bool with_log) {
          ckptsim::proactive::ProactiveModel model(p, seed);
          return observe_path(model, with_log, every, false, [&model] {
            return render(model.run_replication(kTransient, kHorizon));
          });
        };
        expect_same_path(path(true), path(false), every);
      }
    }
  }
}

}  // namespace
