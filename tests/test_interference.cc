// Shared-platform interference layer: PfsServer contention disciplines,
// job-mix parsing, and the K-job interference engine's determinism
// contracts — K=1 reduction to the single-application model, worker-count
// invariance, CRN pairing across PFS policies, and pinned golden
// trajectories per policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/model/io_timing.h"
#include "src/model/parameter_table.h"
#include "src/model/parameters.h"
#include "src/platform/interference.h"
#include "src/platform/job_mix.h"
#include "src/platform/pfs.h"
#include "src/sim/pending_set.h"
#include "src/sim/rng.h"
#include "src/trace/event_log.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::Parameters;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::platform::InterferenceModel;
using ckptsim::platform::InterferenceResult;
using ckptsim::platform::JobMix;
using ckptsim::platform::parse_job_mix;
using ckptsim::platform::PfsPolicy;
using ckptsim::platform::PfsServer;
using ckptsim::platform::run_interference;
using ckptsim::sim::fnv1a64;
using ckptsim::sim::PendingSet;
using ckptsim::trace::EventLog;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;

// ---------------------------------------------------------------- PfsServer

/// A PfsServer on its own pending set, as an owner runs it: key 0 is the
/// server's completion, key 1 + j job j's grant delivery, and kTimer one
/// event of the test's own.  Grant deliveries are recorded in firing order.
struct PfsRig {
  static constexpr PendingSet::Key kComplete = 0;
  static constexpr PendingSet::Key kFirstGrant = 1;
  static constexpr PendingSet::Key kTimer = 3;
  struct Delivery {
    std::size_t job;
    double time;
    bool held;  ///< the job still held the grant when its delivery fired
    bool operator==(const Delivery&) const = default;
  };

  PendingSet pending{4};
  PfsServer pfs;
  std::vector<Delivery> delivered;
  std::function<void()> timer;

  PfsRig(double bandwidth, PfsPolicy policy)
      : pfs(pending, kComplete, kFirstGrant, bandwidth, policy) {}
  [[nodiscard]] double now() const { return pending.now(); }
  void run_until(double t_end) {
    pending.run_until(t_end, [this](PendingSet::Key key) {
      if (key == kComplete) return pfs.complete();
      if (key == kTimer) return timer();
      const std::size_t job = key - kFirstGrant;
      delivered.push_back({job, pending.now(), pfs.grant_held_by(job)});
    });
  }
};

TEST(PfsServer, FairShareStretchesConcurrentTransfers) {
  PfsRig rig(/*bandwidth=*/100.0, PfsPolicy::kFairShare);
  PfsServer& pfs = rig.pfs;
  int done_a = 0, done_b = 0;
  double t_a = -1.0, t_b = -1.0;
  pfs.submit(0, 1000.0, [&] { ++done_a; t_a = rig.now(); });
  pfs.submit(1, 1000.0, [&] { ++done_b; t_b = rig.now(); });
  rig.run_until(100.0);
  EXPECT_EQ(done_a, 1);
  EXPECT_EQ(done_b, 1);
  // Two equal transfers under processor sharing each see half the
  // bandwidth: both finish at 2x the uncontended 10 s, stretch 2.0.
  EXPECT_DOUBLE_EQ(t_a, 20.0);
  EXPECT_DOUBLE_EQ(t_b, 20.0);
  EXPECT_DOUBLE_EQ(pfs.stretch_sum(0), 2.0);
  EXPECT_DOUBLE_EQ(pfs.stretch_sum(1), 2.0);
  EXPECT_EQ(pfs.completed_total(), 2u);
  // The server was busy exactly while the transfers ran.
  EXPECT_DOUBLE_EQ(pfs.busy_seconds(100.0), 20.0);
}

TEST(PfsServer, FcfsServesOneTransferAtATimeInArrivalOrder) {
  PfsRig rig(100.0, PfsPolicy::kFcfs);
  PfsServer& pfs = rig.pfs;
  double t_a = -1.0, t_b = -1.0;
  pfs.submit(0, 1000.0, [&] { t_a = rig.now(); });
  pfs.submit(1, 500.0, [&] { t_b = rig.now(); });
  EXPECT_EQ(pfs.active_now(), 1u);
  EXPECT_EQ(pfs.queued_now(), 1u);
  rig.run_until(100.0);
  EXPECT_DOUBLE_EQ(t_a, 10.0);  // full bandwidth, arrival order
  EXPECT_DOUBLE_EQ(t_b, 15.0);  // waited 10 s, then 5 s of service
  EXPECT_DOUBLE_EQ(pfs.stretch_sum(0), 1.0);
  EXPECT_DOUBLE_EQ(pfs.stretch_sum(1), 3.0);  // 15 s for a 5 s transfer
}

TEST(PfsServer, CancelRemovesQueuedTransfer) {
  PfsRig rig(100.0, PfsPolicy::kFcfs);
  PfsServer& pfs = rig.pfs;
  int done_b = 0;
  pfs.submit(0, 1000.0, [] {});
  const PfsServer::RequestId b = pfs.submit(1, 1000.0, [&] { ++done_b; });
  EXPECT_TRUE(pfs.cancel(b));
  EXPECT_FALSE(pfs.cancel(b));  // already gone
  rig.run_until(100.0);
  EXPECT_EQ(done_b, 0);
  EXPECT_EQ(pfs.completed_total(), 1u);
  EXPECT_EQ(pfs.cancelled_total(), 1u);
}

TEST(PfsServer, SubmitRejectsDegenerateByteCounts) {
  PfsRig rig(100.0, PfsPolicy::kFairShare);
  PfsServer& pfs = rig.pfs;
  EXPECT_THROW(pfs.submit(0, 0.0, [] {}), std::invalid_argument);
  EXPECT_THROW(pfs.submit(0, -1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(pfs.submit(0, std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(pfs.submit(0, std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(PfsServer(rig.pending, 0, 1, 0.0, PfsPolicy::kFairShare), std::invalid_argument);
  EXPECT_THROW(PfsServer(rig.pending, 0, 1, std::nan(""), PfsPolicy::kFairShare),
               std::invalid_argument);
}

TEST(PfsServer, GrantIsExclusiveAndFifo) {
  PfsRig rig(100.0, PfsPolicy::kBlockingCooperative);
  PfsServer& pfs = rig.pfs;
  pfs.request_grant(0);
  pfs.request_grant(1);
  rig.run_until(1.0);
  // Only the first grant is delivered until the holder releases.
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_TRUE(pfs.grant_held_by(0));
  EXPECT_THROW(pfs.release_grant(1), std::logic_error);  // not the holder
  pfs.release_grant(0);
  rig.run_until(2.0);
  ASSERT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.delivered[1].job, 1u);
  EXPECT_TRUE(pfs.grant_held_by(1));
  pfs.release_grant(1);
  EXPECT_FALSE(pfs.grant_held_by(1));
}

TEST(PfsServer, GrantReleasedBeforeDeliveryPassesOnAtTheSameInstant) {
  // Job 0 is granted the idle server and releases it before its zero-delay
  // delivery fires (a failure between grant and delivery), so job 1 is
  // granted at once.  Both deliveries fire at t = 0, in grant order, and
  // job 0's finds that it no longer holds the grant.
  PfsRig rig(100.0, PfsPolicy::kBlockingCooperative);
  PfsServer& pfs = rig.pfs;
  pfs.request_grant(0);
  pfs.request_grant(1);
  pfs.release_grant(0);
  EXPECT_TRUE(pfs.grant_held_by(1));
  rig.run_until(0.0);
  const std::vector<PfsRig::Delivery> expected = {{0, 0.0, false}, {1, 0.0, true}};
  EXPECT_EQ(rig.delivered, expected);
}

TEST(PfsServer, CompletionKeyIsArmedForTheNextFinishTime) {
  PfsRig rig(100.0, PfsPolicy::kFairShare);
  PfsServer& pfs = rig.pfs;
  EXPECT_FALSE(rig.pending.armed(PfsRig::kComplete));
  pfs.submit(0, 1000.0, [] {});
  EXPECT_DOUBLE_EQ(rig.pending.peek_time(), 10.0);
  // A second transfer halves the first one's share: both now finish at 20.
  pfs.submit(1, 1000.0, [] {});
  EXPECT_TRUE(rig.pending.armed(PfsRig::kComplete));
  EXPECT_DOUBLE_EQ(rig.pending.peek_time(), 20.0);
  rig.run_until(100.0);
  EXPECT_FALSE(rig.pending.armed(PfsRig::kComplete));  // idle: nothing to finish
  const PfsServer::RequestId id = pfs.submit(0, 500.0, [] {});
  EXPECT_TRUE(pfs.cancel(id));
  EXPECT_FALSE(rig.pending.armed(PfsRig::kComplete));
}

TEST(PfsServer, QueuedGrantIsArmedOnlyWhenTheHolderReleases) {
  PfsRig rig(100.0, PfsPolicy::kBlockingCooperative);
  PfsServer& pfs = rig.pfs;
  pfs.request_grant(0);
  pfs.request_grant(1);
  EXPECT_TRUE(rig.pending.armed(PfsRig::kFirstGrant));
  EXPECT_FALSE(rig.pending.armed(PfsRig::kFirstGrant + 1));
  rig.run_until(3.0);
  pfs.release_grant(0);
  EXPECT_TRUE(rig.pending.armed(PfsRig::kFirstGrant + 1));
  EXPECT_DOUBLE_EQ(rig.pending.peek_time(), 3.0);  // delivered at the release instant
  // A waiter that gives up is never granted.
  pfs.request_grant(0);
  EXPECT_TRUE(pfs.cancel_grant(0));
  EXPECT_FALSE(pfs.cancel_grant(0));
  rig.run_until(4.0);
  pfs.release_grant(1);
  EXPECT_TRUE(rig.pending.empty());
  EXPECT_FALSE(pfs.grant_held_by(0));
}

TEST(PfsServer, LongRunReachesQuiescenceWithoutLivelock) {
  // Regression: late in a long run the last sliver of a transfer implies a
  // completion delay below the fp resolution of `now`; the server must
  // finish it instead of rescheduling a zero-advance event forever.
  PfsRig rig(1.6e10, PfsPolicy::kFairShare);
  PfsServer& pfs = rig.pfs;
  // Jump the clock far out, then overlap two transfers.
  rig.timer = [&] {
    pfs.submit(0, 1.0e9, [] {});
    pfs.submit(1, 1.0e9 / 3.0, [] {});  // remainder not representable cleanly
  };
  rig.pending.arm(PfsRig::kTimer, 7.0e6);
  rig.run_until(8.0e6);  // would never return on livelock
  EXPECT_EQ(pfs.completed_total(), 2u);
  EXPECT_EQ(pfs.active_now(), 0u);
}

TEST(PfsServer, PolicyChoicesAreOneSpellingEachInEnumOrder) {
  // The CLI and the protocol cast parse_choice's index to the enum, so the
  // choice string must list to_string's names in enum order, and nothing else.
  using ckptsim::platform::kPfsPolicies;
  const PfsPolicy policies[] = {PfsPolicy::kFairShare, PfsPolicy::kFcfs,
                                PfsPolicy::kBlockingCooperative, PfsPolicy::kStaggered};
  EXPECT_EQ(static_cast<std::size_t>(std::count(kPfsPolicies.begin(), kPfsPolicies.end(), '|')),
            std::size(policies) - 1);
  for (const PfsPolicy policy : policies) {
    const std::string name = ckptsim::platform::to_string(policy);
    EXPECT_EQ(ckptsim::parse_choice(name, kPfsPolicies, "policy"),
              static_cast<std::size_t>(policy))
        << name;
  }
  for (const char* alias : {"fair-share", "cooperative", "staggered", "FCFS", ""}) {
    EXPECT_THROW((void)ckptsim::parse_choice(alias, kPfsPolicies, "policy"),
                 std::invalid_argument)
        << alias;
  }
}

// -------------------------------------------------------- transfer_seconds

TEST(IoTiming, TransferSecondsRejectsNonFiniteInputs) {
  EXPECT_DOUBLE_EQ(ckptsim::transfer_seconds(1000.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(ckptsim::transfer_seconds(0.0, 100.0), 0.0);
  EXPECT_THROW((void)ckptsim::transfer_seconds(std::nan(""), 100.0), std::invalid_argument);
  EXPECT_THROW((void)ckptsim::transfer_seconds(std::numeric_limits<double>::infinity(), 100.0),
               std::invalid_argument);
  EXPECT_THROW((void)ckptsim::transfer_seconds(-1.0, 100.0), std::invalid_argument);
  EXPECT_THROW((void)ckptsim::transfer_seconds(1000.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)ckptsim::transfer_seconds(1000.0, -5.0), std::invalid_argument);
  EXPECT_THROW((void)ckptsim::transfer_seconds(1000.0, std::nan("")), std::invalid_argument);
  EXPECT_THROW((void)ckptsim::transfer_seconds(1000.0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

// ------------------------------------------------------------------ JobMix

TEST(JobMix, ParsesOverridesOntoBase) {
  Parameters base;
  const JobMix mix = parse_job_mix(
      "big:procs=65536;small:procs=8192,interval_min=15,ckpt_mb=512;plain", base);
  ASSERT_EQ(mix.jobs.size(), 3u);
  EXPECT_EQ(mix.jobs[0].name, "big");
  EXPECT_EQ(mix.jobs[0].params.num_processors, 65536u);
  EXPECT_DOUBLE_EQ(mix.jobs[0].params.checkpoint_interval, base.checkpoint_interval);
  EXPECT_EQ(mix.jobs[1].params.num_processors, 8192u);
  EXPECT_DOUBLE_EQ(mix.jobs[1].params.checkpoint_interval, 15.0 * kMinute);
  EXPECT_DOUBLE_EQ(mix.jobs[1].params.checkpoint_size_per_node, 512.0 * ckptsim::units::kMB);
  EXPECT_EQ(mix.jobs[2].name, "plain");
  EXPECT_EQ(mix.jobs[2].params.num_processors, base.num_processors);
  mix.validate();
  // Default bandwidth derives from the first job's I/O subsystem.
  EXPECT_DOUBLE_EQ(mix.resolved_bandwidth(),
                   static_cast<double>(mix.jobs[0].params.io_nodes()) *
                       mix.jobs[0].params.bw_io_to_fs);
}

TEST(JobMix, RejectsMalformedSpecs) {
  const Parameters base;
  EXPECT_THROW(parse_job_mix("", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix("a:bogus_key=1", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix("a:procs=abc", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix("a:procs", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix(":procs=1", base), std::invalid_argument);
  // Counts are whole numbers that fit their field; numbers take no junk.
  EXPECT_THROW(parse_job_mix("a:procs=-8", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix("a:procs=2.5", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix("a:procs_per_node=4294967304", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix("a:mttf_yr=2yr", base), std::invalid_argument);
  EXPECT_EQ(parse_job_mix("a:procs=6.5536e4", base).jobs[0].params.num_processors, 65536u);
  // Duplicate names are a validation error.
  JobMix dup = parse_job_mix("a;a", base);
  EXPECT_THROW(dup.validate(), std::invalid_argument);
}

TEST(JobMix, RejectsNonExponentialFailures) {
  Parameters weibull;
  weibull.failure_distribution = ckptsim::FailureDistribution::kWeibull;
  JobMix mix = JobMix::uniform(2, weibull, PfsPolicy::kFairShare);
  EXPECT_THROW(mix.validate(), std::invalid_argument);
}

// ------------------------------------------------- interference determinism

RunSpec small_spec() {
  RunSpec spec;
  spec.replications = 3;
  spec.seed = 2026;
  spec.transient = 0.5 * kHour;
  spec.horizon = 12.0 * kHour;
  return spec;
}

JobMix three_job_mix(PfsPolicy policy) {
  const Parameters base;
  JobMix mix = parse_job_mix(
      "big:procs=65536;mid:procs=16384,interval_min=20;small:procs=8192,interval_min=15",
      base);
  mix.pfs.policy = policy;
  return mix;
}

TEST(Interference, SingleJobMixReproducesRunModelBitIdentically) {
  const Parameters base;
  JobMix mix = parse_job_mix("solo", base);
  const RunSpec spec = small_spec();
  const InterferenceResult inter = run_interference(mix, spec);
  const RunResult direct = ckptsim::run_model(base, spec, EngineKind::kDes);
  ASSERT_EQ(inter.jobs.size(), 1u);
  // Delegation: exact double equality, not tolerance — same seeds, same
  // model, same aggregation.
  EXPECT_EQ(inter.jobs[0].useful_fraction.mean, direct.useful_fraction.mean);
  EXPECT_EQ(inter.jobs[0].useful_fraction.half_width, direct.useful_fraction.half_width);
  EXPECT_EQ(inter.jobs[0].commits, direct.totals.ckpt_committed);
  EXPECT_EQ(inter.replications, direct.replications);
  // Interference-only rewards read as the uncontended ideal.
  EXPECT_DOUBLE_EQ(inter.jobs[0].stretch_replicates.mean(), 1.0);
  EXPECT_DOUBLE_EQ(inter.pfs_utilization.mean(), 0.0);
}

/// run_interference's std::invalid_argument message for the three-job mix
/// under `spec`, or "" when it ran.
std::string multi_job_error(const RunSpec& spec) {
  try {
    (void)run_interference(three_job_mix(PfsPolicy::kFairShare), spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Interference, MultiJobRejectsRetryAndSkipPolicies) {
  for (const auto mode : {ckptsim::FailurePolicy::Mode::kRetry,
                          ckptsim::FailurePolicy::Mode::kSkip}) {
    RunSpec spec = small_spec();
    spec.on_failure.mode = mode;
    EXPECT_NE(multi_job_error(spec).find("on_failure"), std::string::npos);
  }
}

TEST(Interference, MultiJobRejectsSnapshots) {
  RunSpec spec = small_spec();
  spec.snapshot_every_events = 1000;
  spec.snapshot_dir = "snaps";
  EXPECT_NE(multi_job_error(spec).find("snapshot_every_events"), std::string::npos);
}

TEST(Interference, MultiJobRejectsFaultInjection) {
  RunSpec spec = small_spec();
  spec.fault_injection = [](std::size_t, std::size_t) {};
  EXPECT_NE(multi_job_error(spec).find("fault_injection"), std::string::npos);
}

TEST(Interference, MultiJobRejectsSequentialStopping) {
  RunSpec spec = small_spec();
  spec.sequential.rel_precision = 0.05;
  EXPECT_NE(multi_job_error(spec).find("sequential"), std::string::npos);
}

/// JobMix::validate's message for a two-job mix over `base` whose second job
/// applies `overrides`, or "" when the mix is valid.
std::string two_job_error(const Parameters& base, const std::string& overrides) {
  try {
    parse_job_mix("a:procs=8192;b:procs=8192" + overrides, base).validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Interference, MultiJobRejectsDisabledFailures) {
  // What ckptsim_cli --no-failures sets.
  Parameters base;
  base.compute_failures_enabled = false;
  base.io_failures_enabled = false;
  base.master_failures_enabled = false;
  const std::string error = two_job_error(base, "");
  EXPECT_NE(error.find("job 'a'"), std::string::npos) << error;
  EXPECT_NE(error.find("compute_failures"), std::string::npos) << error;
}

TEST(Interference, MultiJobRejectsCorrelatedFailuresAndTimeout) {
  Parameters base;
  base.prob_correlated = 0.5;
  EXPECT_NE(two_job_error(base, "").find("prob_correlated"), std::string::npos);
  Parameters timeout;
  timeout.timeout = 5.0;
  EXPECT_NE(two_job_error(timeout, "").find("timeout"), std::string::npos);
}

TEST(Interference, MultiJobRejectsComputeFractionMixKey) {
  const std::string error = two_job_error(Parameters{}, ",compute_fraction=0.5");
  EXPECT_NE(error.find("job 'b'"), std::string::npos) << error;
  EXPECT_NE(error.find("compute_fraction"), std::string::npos) << error;
  // Fields the engine models stay settable, and one job takes any field.
  EXPECT_EQ(two_job_error(Parameters{}, ",interval_min=15,mttq=5,coordination=fixed"), "");
  parse_job_mix("solo:compute_fraction=0.5", Parameters{}).validate();
}

TEST(Interference, SingleJobMixHonoursRunModelKnobs) {
  // K = 1 hands off to run_model, which honours what K > 1 rejects.
  const Parameters base;
  RunSpec spec = small_spec();
  spec.on_failure.mode = ckptsim::FailurePolicy::Mode::kSkip;
  spec.sequential.rel_precision = 0.05;
  spec.sequential.min_replications = 3;
  spec.sequential.max_replications = 6;
  const InterferenceResult inter = run_interference(parse_job_mix("solo", base), spec);
  const RunResult direct = ckptsim::run_model(base, spec, EngineKind::kDes);
  ASSERT_EQ(inter.jobs.size(), 1u);
  EXPECT_EQ(inter.jobs[0].useful_fraction.mean, direct.useful_fraction.mean);
  EXPECT_EQ(inter.replications, direct.replications);
}

TEST(Interference, WorkerCountDoesNotChangeResults) {
  const JobMix mix = three_job_mix(PfsPolicy::kFairShare);
  RunSpec one = small_spec();
  one.exec.jobs = 1;
  RunSpec four = small_spec();
  four.exec.jobs = 4;
  const InterferenceResult a = run_interference(mix, one);
  const InterferenceResult b = run_interference(mix, four);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].useful_fraction.mean, b.jobs[j].useful_fraction.mean);
    EXPECT_EQ(a.jobs[j].useful_fraction.half_width, b.jobs[j].useful_fraction.half_width);
    EXPECT_EQ(a.jobs[j].commits, b.jobs[j].commits);
    EXPECT_EQ(a.jobs[j].failures, b.jobs[j].failures);
  }
  EXPECT_EQ(a.pfs_utilization.mean(), b.pfs_utilization.mean());
}

TEST(Interference, PoliciesAreCrnPairedAndDiverge) {
  const RunSpec spec = small_spec();
  const InterferenceResult fair = run_interference(three_job_mix(PfsPolicy::kFairShare), spec);
  const InterferenceResult fcfs = run_interference(three_job_mix(PfsPolicy::kFcfs), spec);
  const InterferenceResult coop =
      run_interference(three_job_mix(PfsPolicy::kBlockingCooperative), spec);
  ASSERT_EQ(fair.jobs.size(), 3u);
  bool any_divergence = false;
  for (std::size_t j = 0; j < 3; ++j) {
    // CRN contract: the failure process draws from a policy-independent
    // stream, so every policy sees the identical failure trajectory.
    EXPECT_EQ(fair.jobs[j].failures, fcfs.jobs[j].failures) << "job " << j;
    EXPECT_EQ(fair.jobs[j].failures, coop.jobs[j].failures) << "job " << j;
    if (fair.jobs[j].useful_fraction.mean != fcfs.jobs[j].useful_fraction.mean ||
        fair.jobs[j].stretch_replicates.mean() != fcfs.jobs[j].stretch_replicates.mean()) {
      any_divergence = true;
    }
  }
  // The policies are genuinely different disciplines: the contended rewards
  // must not be identical across them.
  EXPECT_TRUE(any_divergence);
  // A contended 3-job mix keeps the PFS measurably busy.
  EXPECT_GT(fair.pfs_utilization.mean(), 0.0);
}

// ------------------------------------------------------ golden trajectories

/// Same reduction as tests/test_golden_trajectory.cc: every retained
/// (time, kind, value) triple plus the total count, %.17g so the checksum
/// is sensitive to the last bit of every double.
std::uint64_t event_log_checksum(const EventLog& log) {
  std::string s;
  s.reserve(log.size() * 48);
  char buf[96];
  for (const auto& e : log.events()) {
    std::snprintf(buf, sizeof buf, "%.17g|%u|%.17g;", e.time,
                  static_cast<unsigned>(e.kind), e.value);
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "#%llu",
                static_cast<unsigned long long>(log.total_recorded()));
  s += buf;
  return fnv1a64(s);
}

std::uint64_t interference_checksum(PfsPolicy policy) {
  EventLog log(1 << 18);
  InterferenceModel model(three_job_mix(policy), ckptsim::sim::replication_seed(2026, 0));
  model.set_event_log(&log);
  (void)model.run(0.5 * kHour, 12.0 * kHour);
  return event_log_checksum(log);
}

// Pinned baselines, captured from a verified build (one per policy).  Any
// change to the interference engine's event ordering or stream consumption
// moves these; re-pin only with an explanation of the trajectory change.
constexpr std::uint64_t kGoldenFair = 0x5706de634d597084ULL;
constexpr std::uint64_t kGoldenFcfs = 0x0fc5f1638327b067ULL;
constexpr std::uint64_t kGoldenCoop = 0x2301b8dc2925b457ULL;
constexpr std::uint64_t kGoldenStagger = 0x0a4dcbca65ba5a1aULL;

TEST(Interference, GoldenTrajectoryFairShare) {
  const std::uint64_t got = interference_checksum(PfsPolicy::kFairShare);
  EXPECT_EQ(got, kGoldenFair) << "checksum 0x" << std::hex << got;
}

TEST(Interference, GoldenTrajectoryFcfs) {
  const std::uint64_t got = interference_checksum(PfsPolicy::kFcfs);
  EXPECT_EQ(got, kGoldenFcfs) << "checksum 0x" << std::hex << got;
}

TEST(Interference, GoldenTrajectoryCooperative) {
  const std::uint64_t got = interference_checksum(PfsPolicy::kBlockingCooperative);
  EXPECT_EQ(got, kGoldenCoop) << "checksum 0x" << std::hex << got;
}

TEST(Interference, GoldenTrajectoryStaggered) {
  const std::uint64_t got = interference_checksum(PfsPolicy::kStaggered);
  EXPECT_EQ(got, kGoldenStagger) << "checksum 0x" << std::hex << got;
}

}  // namespace
