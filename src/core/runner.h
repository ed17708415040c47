#pragma once

#include <cstdint>
#include <functional>

#include "src/core/fault.h"
#include "src/core/replicate.h"
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
/// seed.  The attempt run_model, sweep and the campaign server hand to the
/// replication driver; callers derive `seed` via sim::replication_seed.
/// When `probe` is non-null the replication additionally reports its
/// telemetry (per-EventKind counts, activity firings/aborts, event-queue
/// stats) into it; collection never perturbs the simulation.
/// `max_events` is the watchdog budget (0 = unlimited): past it the run
/// throws sim::EventBudgetExceeded.  A non-null enabled `snapshot` turns on
/// event-granular crash-resume: the state is captured every
/// `snapshot->every` fired events, an existing snapshot file is resumed
/// from (bit-identically), and the file is removed once the replication
/// completes.  A snapshot that fails validation throws
/// snapshot::SnapshotError — never a partial restore.
///
/// A DES replication runs on one DesModel (fixed-slot scheduler), with or
/// without snapshots and trace replay.
[[nodiscard]] ReplicationResult run_replication(
    const Parameters& params, EngineKind engine, std::uint64_t seed, double transient,
    double horizon, obs::ReplicationProbe* probe = nullptr, std::uint64_t max_events = 0,
    sim::SchedulerKind = sim::SchedulerKind::kBinaryHeap,  // perfbench/src/replay.cc passes it
    const SnapshotSpec* snapshot = nullptr);

/// Run-context fingerprint embedded in (and checked against) every
/// snapshot `run_replication` writes: the canonical Parameters serialization
/// plus seed, observation window, engine, and replication index.  Any
/// difference in what would be simulated changes the string, so a stale
/// snapshot is rejected (kSnapshotMismatch) instead of silently resumed.
[[nodiscard]] std::string snapshot_run_context(const Parameters& params, std::uint64_t master_seed,
                                               double transient, double horizon, EngineKind engine,
                                               std::size_t rep);

/// Parameters::validate(), plus the check that `params` carries no
/// proactive parameters: the base engines would silently ignore the
/// predictor and policy, so run_model, sweep and the service's sweep
/// validation refuse them (std::invalid_argument prefixed by `driver`).
void validate_reactive_point(const Parameters& params, const std::string& driver);

/// Snapshot control of replication `rep` of one point: a capture every
/// `every` fired events (0 = off) into `<path_prefix>rep-<rep>.snap`, with
/// the context bound to this exact run (snapshot_run_context).
[[nodiscard]] SnapshotSpec replication_snapshot(const Parameters& params, const RunSpec& spec,
                                                EngineKind engine, std::size_t rep,
                                                std::uint64_t every,
                                                const std::string& path_prefix);

/// A finished point's RunResult: its successes aggregated in replication-
/// index order, its failure accounting and its round sizes.
[[nodiscard]] RunResult aggregate_point(const PointRounds<ReplicationResult>& point,
                                        double confidence_level, const Parameters& params);

/// Combine per-replication results (in replication-index order) into the
/// aggregate RunResult.  Order matters for bit-identical CIs.
[[nodiscard]] RunResult aggregate_replications(const std::vector<ReplicationResult>& reps,
                                               double confidence_level, const Parameters& params);

/// Convenience: total useful work (fraction * processors) for one point.
[[nodiscard]] double total_useful_work(const Parameters& params, const RunSpec& spec,
                                       EngineKind engine = EngineKind::kDes);

}  // namespace ckptsim
