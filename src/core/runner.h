#pragma once

#include <cstdint>
#include <functional>

#include "src/core/fault.h"
#include "src/core/results.h"
#include "src/model/parameters.h"

namespace ckptsim::obs {
struct ReplicationProbe;
}  // namespace ckptsim::obs

namespace ckptsim {

/// Which implementation of the model to simulate.
enum class EngineKind {
  kDes,  ///< hand-coded discrete-event engine (fast; default)
  kSan,  ///< the Table-1 SAN submodels on the generic SAN executor
};

/// Simulate `params` under `spec` and aggregate replications into a
/// RunResult (useful-work fraction CI, total useful work, counters).
/// Replications run across `spec.exec` worker threads; results are
/// collected in replication-index order, so the output is bit-identical
/// to a serial run for any thread count.
///
/// This is the library's main entry point:
///
///   ckptsim::Parameters p;
///   p.num_processors = 131072;
///   auto r = ckptsim::run_model(p, ckptsim::RunSpec{});
///   std::cout << r.useful_fraction.mean << "\n";
[[nodiscard]] RunResult run_model(const Parameters& params, const RunSpec& spec,
                                  EngineKind engine = EngineKind::kDes);

/// One independent replication of `params` under `engine` with its own
/// seed.  The unit of work the parallel drivers (run_model, sweep)
/// dispatch; callers derive `seed` via sim::replication_seed.  When `probe`
/// is non-null the replication additionally reports its telemetry (per-
/// EventKind counts, activity firings/aborts, event-queue stats) into it;
/// collection never perturbs the simulation.  `max_events` is the watchdog
/// budget (0 = unlimited): past it the run throws
/// sim::EventBudgetExceeded.  A non-null enabled `snapshot` turns on
/// event-granular crash-resume: the state is captured every
/// `snapshot->every` fired events, an existing snapshot file is resumed
/// from (bit-identically), and the file is removed once the replication
/// completes.  A snapshot that fails validation throws
/// snapshot::SnapshotError — never a partial restore.
///
/// A DES replication runs on one DesModel (fixed-slot scheduler), with or
/// without snapshots and trace replay.  `scheduler` selects the event-queue
/// backend of the SAN engine; the DES engine has no event queue.
[[nodiscard]] ReplicationResult run_replication(
    const Parameters& params, EngineKind engine, std::uint64_t seed, double transient,
    double horizon, obs::ReplicationProbe* probe = nullptr, std::uint64_t max_events = 0,
    sim::SchedulerKind scheduler = sim::SchedulerKind::kBinaryHeap,
    const SnapshotSpec* snapshot = nullptr);

/// Run-context fingerprint embedded in (and checked against) every
/// snapshot `run_replication` writes: the canonical Parameters serialization
/// plus seed, observation window, engine, and replication index.  Any
/// difference in what would be simulated changes the string, so a stale
/// snapshot is rejected (kSnapshotMismatch) instead of silently resumed.
[[nodiscard]] std::string snapshot_run_context(const Parameters& params, std::uint64_t master_seed,
                                               double transient, double horizon, EngineKind engine,
                                               std::size_t rep);

namespace detail {

/// Outcome of one replication executed under a FailurePolicy: either a
/// result (possibly after retries — then `failure` records what was
/// recovered from), or a permanent failure.  `attempts == 0` marks a
/// replication abandoned before its first attempt (fail-fast bail-out or
/// cancellation).
struct ReplicationOutcome {
  bool ok = false;
  ReplicationResult result;     ///< valid when ok
  ReplicationFailure failure;   ///< last failure; meaningful when !ok or attempts > 1
  std::size_t attempts = 0;     ///< attempts consumed
};

/// Run replication `rep` with retry/watchdog handling.  Catches every
/// attempt failure and classifies it into the ErrorCode taxonomy — the
/// parallel drivers' tasks never throw, so failures reach the caller as
/// structured accounting instead of being torn out of ThreadPool::wait.
/// Attempt seeds: the canonical sim::replication_seed stream, advanced to
/// a fresh sim::replication_attempt_seed substream only after failures
/// that are deterministic in (params, seed) — so a transient failure
/// retried successfully reproduces a clean run bit-identically.
[[nodiscard]] ReplicationOutcome run_replication_guarded(
    const Parameters& params, EngineKind engine, std::uint64_t master_seed, std::size_t rep,
    double transient, double horizon, const FailurePolicy& policy, const WatchdogSpec& watchdog,
    obs::ReplicationProbe* probe,
    const std::function<void(std::size_t, std::size_t)>& fault_injection,
    sim::SchedulerKind scheduler = sim::SchedulerKind::kBinaryHeap,
    const SnapshotSpec* snapshot = nullptr);

/// One attempt of a replication: simulate with `seed`, reporting telemetry
/// into `probe` when it is non-null.
using ReplicationAttempt =
    std::function<ReplicationResult(std::uint64_t seed, obs::ReplicationProbe* probe)>;

/// The policy loop above around any model: `run_attempt` replaces
/// run_replication (the overload above passes exactly that), with the same
/// seeds, failure classification, retries and snapshot cleanup.
[[nodiscard]] ReplicationOutcome run_replication_guarded(
    std::uint64_t master_seed, std::size_t rep, const FailurePolicy& policy,
    obs::ReplicationProbe* probe,
    const std::function<void(std::size_t, std::size_t)>& fault_injection,
    const SnapshotSpec* snapshot, const ReplicationAttempt& run_attempt);

}  // namespace detail

/// Combine per-replication results (in replication-index order) into the
/// aggregate RunResult.  Order matters for bit-identical CIs.
[[nodiscard]] RunResult aggregate_replications(const std::vector<ReplicationResult>& reps,
                                               double confidence_level, const Parameters& params);

/// Convenience: total useful work (fraction * processors) for one point.
[[nodiscard]] double total_useful_work(const Parameters& params, const RunSpec& spec,
                                       EngineKind engine = EngineKind::kDes);

}  // namespace ckptsim
