#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/fault.h"
#include "src/core/thread_pool.h"
#include "src/sim/event_queue.h"
#include "src/stats/confidence.h"
#include "src/stats/sequential.h"
#include "src/stats/summary.h"

namespace ckptsim::obs {
class Metrics;
class ProgressReporter;
}  // namespace ckptsim::obs

namespace ckptsim {

/// Event counters accumulated during one simulation window.  All counts are
/// per observation window (the warm-up transient is excluded).
struct RunCounters {
  std::uint64_t compute_failures = 0;   ///< independent compute-node failures
  std::uint64_t extra_failures = 0;     ///< correlated-process failures
  std::uint64_t io_failures = 0;        ///< I/O-node failures
  std::uint64_t master_aborts = 0;      ///< checkpoints aborted by master failure
  std::uint64_t ckpt_initiated = 0;     ///< master started the protocol
  std::uint64_t ckpt_dumped = 0;        ///< dump to I/O nodes completed
  std::uint64_t ckpt_full = 0;          ///< of which full checkpoints
  std::uint64_t ckpt_incremental = 0;   ///< of which incremental checkpoints
  std::uint64_t ckpt_committed = 0;     ///< file-system write completed
  std::uint64_t ckpt_aborted_timeout = 0;
  std::uint64_t ckpt_aborted_failure = 0;  ///< aborted by a compute failure
  std::uint64_t ckpt_aborted_io = 0;       ///< aborted by an I/O failure
  std::uint64_t recoveries_started = 0;
  std::uint64_t recoveries_completed = 0;
  std::uint64_t recovery_restarts = 0;  ///< failures during recovery
  std::uint64_t stage1_reads = 0;       ///< recoveries that re-read the FS copy
  std::uint64_t reboots = 0;
  std::uint64_t prop_windows = 0;  ///< error-propagation windows opened

  RunCounters& operator+=(const RunCounters& o);
  RunCounters operator-(const RunCounters& o) const;
};

/// Where the machine's time goes, as fractions of the observed span
/// (they sum to ~1).  Decomposes the paper's observation that "over 50% of
/// system time is spent in handling failures" at the useful-work optimum.
struct StateBreakdown {
  double executing = 0.0;      ///< application running (compute or app I/O)
  double checkpointing = 0.0;  ///< quiescing / waiting for I/O / dumping / blocked on FS
  double recovering = 0.0;     ///< recovery stages 1-2 (incl. waits)
  double rebooting = 0.0;      ///< whole-system reboot

  [[nodiscard]] double total() const noexcept {
    return executing + checkpointing + recovering + rebooting;
  }
  StateBreakdown& operator+=(const StateBreakdown& o) noexcept;
  StateBreakdown operator/(double d) const noexcept;
};

/// Output of a single replication.
struct ReplicationResult {
  double useful_fraction = 0.0;  ///< net useful work / observed span
  double gross_execution_fraction = 0.0;  ///< time in execution / span (no loss charge)
  double observed_span = 0.0;    ///< horizon actually simulated (seconds)
  StateBreakdown breakdown;
  RunCounters counters;
};

/// Aggregated output of a multi-replication run of one parameter point.
struct RunResult {
  stats::ConfidenceInterval useful_fraction;  ///< CI over replicate fractions
  stats::Summary fraction_replicates;
  stats::Summary gross_replicates;
  double total_useful_work = 0.0;  ///< mean fraction * num_processors (job units)
  StateBreakdown mean_breakdown;   ///< averaged over replications
  RunCounters totals;              ///< summed over replications
  std::size_t replications = 0;    ///< replications aggregated (successes)

  /// Replications skipped or recovered under the failure policy; empty for
  /// clean runs, so attaching it never changes existing output.
  FailureAccounting failures;

  /// Sizes of the sequential-stopping rounds that produced this result, in
  /// order (e.g. {5, 3, 4}); empty for fixed-replication runs, so attaching
  /// it never changes existing output or journal bytes.
  std::vector<std::uint32_t> rounds;

  [[nodiscard]] std::string describe() const;
};

/// Per-replication snapshot control, threaded from RunSpec down to the
/// engines by the execution drivers: capture the full simulator state into
/// `path` (atomic temp-file + rename) every `every` fired events, and
/// resume from `path` when a snapshot already exists there.  `context` is
/// the run fingerprint (parameters + seed + window + engine + replication)
/// embedded in every snapshot; a restore whose context disagrees is
/// rejected as stale rather than silently resumed.
struct SnapshotSpec {
  std::uint64_t every = 0;  ///< fired-event period; 0 disables
  std::string path;         ///< snapshot file of this replication
  std::string context;      ///< expected run-context fingerprint
  /// Graceful-drain flag (daemon SIGTERM): when non-null and set, the
  /// replication stops at the next snapshot boundary — the snapshot is
  /// written first, then SimError(kInterrupted) unwinds the run, and the
  /// file is kept so a restart resumes bit-identically.
  const std::atomic<bool>* stop = nullptr;

  [[nodiscard]] bool enabled() const noexcept { return every > 0 && !path.empty(); }
};

/// Simulation controls shared by both engines, mirroring the paper's setup
/// (steady-state simulation, initial transient discard, 95% confidence).
struct RunSpec {
  double transient = 200.0 * 3600.0;  ///< warm-up, seconds (paper used 1000 h)
  double horizon = 2000.0 * 3600.0;   ///< observation span per replication
  std::size_t replications = 5;
  std::uint64_t seed = 42;
  double confidence_level = 0.95;
  ExecSpec exec;  ///< worker threads; results are identical for any jobs

  sim::SchedulerKind scheduler{};  ///< read only by perfbench/src/replay.cc

  /// Precision-driven replication control.  When enabled
  /// (rel_precision > 0), the drivers ignore `replications` and instead run
  /// deterministic rounds — min_replications first, then geometrically
  /// growing batches — until the relative CI half-width of the useful-work
  /// fraction meets the target or max_replications is reached.  Replication
  /// r always uses sim::replication_seed(seed, r) whether it runs in round
  /// 1 or round 4, so adaptive results are bit-identical for any `exec`
  /// job count and sweep points stay CRN-paired by replication index.
  stats::SequentialSpec sequential;

  /// Optional run telemetry (src/obs), off by default: a metrics registry
  /// collecting per-EventKind counts / queue / worker stats, and a progress
  /// heartbeat.  Not owned; must outlive the run.  Attaching either never
  /// changes simulation results (the drivers only clamp their thread count
  /// to the registry's shard count).
  obs::Metrics* metrics = nullptr;
  obs::ProgressReporter* progress = nullptr;

  /// What to do when a replication fails (throws, livelocks, blows the
  /// watchdog budget, or yields non-finite rewards).  The default fail-fast
  /// rethrows the first failure by replication index — deterministic,
  /// unlike the first-by-wall-clock error ThreadPool::wait would surface.
  FailurePolicy on_failure;

  /// Per-replication progress guard (0 = unlimited events).
  WatchdogSpec watchdog{};

  /// Event-granular crash-resume.  When > 0, every replication serializes
  /// its full simulator state into `snapshot_dir` every N fired events (the
  /// same post-fire boundary the watchdog uses) and, on a later identical
  /// run, resumes from the snapshot instead of starting over — snapshot/
  /// restore/continue is bit-identical to an uninterrupted run.  A snapshot
  /// is deleted when its replication completes.  Like `exec` this never
  /// enters journal fingerprints (it cannot change results).  0 = off.
  std::uint64_t snapshot_every_events = 0;

  /// Directory for snapshot files (one per in-flight replication).  Must
  /// exist and be non-empty when snapshot_every_events > 0.
  std::string snapshot_dir{};

  /// Cooperative cancellation (e.g. a SIGINT flag).  Not owned.  When the
  /// pointee becomes true, replications not yet started are abandoned and
  /// the driver throws SimError(kInterrupted) after completing in-flight
  /// work (and, in sweep, journaling every finished point).
  const std::atomic<bool>* cancel = nullptr;

  /// Test-only fault injection: called on the worker thread immediately
  /// before each attempt of each replication.  Anything it throws is
  /// treated as that attempt failing with kInjectedFault and handled by
  /// `on_failure` — the hook the fault-tolerance tests use to script
  /// failures on chosen replications.
  std::function<void(std::size_t replication, std::size_t attempt)> fault_injection{};

  /// Throws std::invalid_argument naming the first violated constraint.
  /// Called once at every driver entry (run_model / sweep).
  void validate() const;

  /// For drivers that run each replication once, fail-fast, with no state
  /// capture (run_proactive, K > 1 run_interference): throws
  /// std::invalid_argument, prefixed by `driver`, naming the first of
  /// `on_failure` (retry/skip), `snapshot_every_events` or
  /// `fault_injection` that is set — a knob such a driver would otherwise
  /// silently ignore.
  void reject_per_replication_knobs(const std::string& driver) const;

  /// Scaled-down spec for CI / quick runs.
  [[nodiscard]] static RunSpec quick();
};

}  // namespace ckptsim
