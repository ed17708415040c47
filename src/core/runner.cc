#include "src/core/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "src/core/journal.h"
#include "src/core/thread_pool.h"
#include "src/model/des_model.h"
#include "src/model/san_model.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/san/executor.h"
#include "src/sim/rng.h"
#include "src/snapshot/file.h"
#include "src/snapshot/state_io.h"

namespace ckptsim {

namespace {
/// Worker threads for a run under `spec`: the resolved job count, clamped
/// to the metrics registry's shard count when one is attached (results are
/// thread-count-invariant, so the clamp is observability-only).
std::size_t obs_jobs(const RunSpec& spec) {
  std::size_t jobs = spec.exec.resolve();
  if (spec.metrics != nullptr) jobs = std::min(jobs, spec.metrics->workers());
  return jobs;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool finite_result(const ReplicationResult& r) noexcept {
  return std::isfinite(r.useful_fraction) && std::isfinite(r.gross_execution_fraction) &&
         std::isfinite(r.observed_span) && std::isfinite(r.breakdown.total());
}

/// Map a snapshot-layer fault onto the driver ErrorCode taxonomy at the
/// layer boundary.
ErrorCode snapshot_error_code(snapshot::SnapshotFault fault) noexcept {
  switch (fault) {
    case snapshot::SnapshotFault::kIo:
      return ErrorCode::kIoError;
    case snapshot::SnapshotFault::kVersionMismatch:
    case snapshot::SnapshotFault::kKindMismatch:
    case snapshot::SnapshotFault::kSchedulerMismatch:
    case snapshot::SnapshotFault::kContextMismatch:
      return ErrorCode::kSnapshotMismatch;
    case snapshot::SnapshotFault::kTruncated:
    case snapshot::SnapshotFault::kCorrupt:
      return ErrorCode::kSnapshotCorrupt;
  }
  return ErrorCode::kSnapshotCorrupt;
}

/// One DES replication.  Under an enabled `snap` it is crash-resumable:
/// resume from an existing snapshot (whole-file validation first, then
/// context check, then state restore — any failure rejects the file
/// outright), install the periodic capture hook, run, and retire the
/// snapshot on completion.
ReplicationResult run_des(const Parameters& params, std::uint64_t seed, double transient,
                          double horizon, obs::ReplicationProbe* probe, std::uint64_t max_events,
                          const SnapshotSpec* snapshot) {
  DesModel model(params, seed);
  model.set_event_budget(max_events);
  if (probe != nullptr) model.set_event_counts(&probe->events);
  if (snapshot == nullptr || !snapshot->enabled()) {
    const ReplicationResult r = model.run(transient, horizon);
    if (probe != nullptr) probe->queue = model.queue_stats();
    return r;
  }
  const SnapshotSpec& snap = *snapshot;
  bool resumed = false;
  if (snapshot::snapshot_exists(snap.path)) {
    const std::string payload = snapshot::read_snapshot_file(snap.path, snapshot::kKindDesModel);
    snapshot::StateReader r(payload);
    if (r.str() != snap.context) {
      throw snapshot::SnapshotError(snapshot::SnapshotFault::kContextMismatch,
                                    "snapshot '" + snap.path + "' belongs to a different run");
    }
    model.restore_state(r);
    r.expect_end();
    resumed = true;
  }
  model.set_fire_hook(snap.every, [&model, &snap] {
    snapshot::StateWriter w;
    w.str(snap.context);
    model.save_state(w);
    snapshot::write_snapshot_file(snap.path, snapshot::kKindDesModel, w.take());
    if (snap.stop != nullptr && snap.stop->load(std::memory_order_relaxed)) {
      throw SimError(ErrorCode::kInterrupted,
                     "replication drained at snapshot boundary ('" + snap.path + "')");
    }
  });
  const ReplicationResult r =
      resumed ? model.continue_run(transient, horizon) : model.run(transient, horizon);
  if (probe != nullptr) probe->queue = model.queue_stats();
  snapshot::remove_snapshot_file(snap.path);
  return r;
}
}  // namespace

std::string snapshot_run_context(const Parameters& params, std::uint64_t master_seed,
                                 double transient, double horizon, EngineKind engine,
                                 std::size_t rep) {
  std::string s = parameters_field_string(params);
  char buf[160];
  std::snprintf(buf, sizeof buf, "seed=%llu;transient=%.17g;horizon=%.17g;engine=%u;rep=%zu;",
                static_cast<unsigned long long>(master_seed), transient, horizon,
                static_cast<unsigned>(engine), rep);
  s += buf;
  return s;
}

RunResult aggregate_replications(const std::vector<ReplicationResult>& reps,
                                 double confidence_level, const Parameters& params) {
  RunResult result;
  if (reps.empty()) return result;  // all replications skipped: zeroed result
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (!finite_result(reps[i])) {
      throw SimError(ErrorCode::kNonFiniteReward,
                     "aggregate_replications: replication " + std::to_string(i) +
                         " reported a non-finite reward (useful_fraction = " +
                         std::to_string(reps[i].useful_fraction) + ")");
    }
  }
  result.replications = reps.size();
  for (const auto& r : reps) {
    result.fraction_replicates.add(r.useful_fraction);
    result.gross_replicates.add(r.gross_execution_fraction);
    result.mean_breakdown += r.breakdown;
    result.totals += r.counters;
  }
  result.mean_breakdown = result.mean_breakdown / static_cast<double>(reps.size());
  result.useful_fraction = stats::mean_confidence(result.fraction_replicates, confidence_level);
  result.total_useful_work =
      result.useful_fraction.mean * static_cast<double>(params.num_processors);
  return result;
}

ReplicationResult run_replication(const Parameters& params, EngineKind engine, std::uint64_t seed,
                                  double transient, double horizon, obs::ReplicationProbe* probe,
                                  std::uint64_t max_events, sim::SchedulerKind scheduler,
                                  const SnapshotSpec* snapshot) {
  switch (engine) {
    case EngineKind::kDes:
      return run_des(params, seed, transient, horizon, probe, max_events, snapshot);
    case EngineKind::kSan: {
      SanCheckpointModel model(params);
      return model.run_replication(seed, transient, horizon, probe, max_events, scheduler,
                                   snapshot);
    }
  }
  throw std::logic_error("run_replication: unknown engine");
}

namespace {

/// The policy loop of detail::run_replication_guarded around one callable
/// attempt; a template so the runner's own lambda is called directly.
template <typename Attempt>
detail::ReplicationOutcome guard_attempts(
    std::uint64_t master_seed, std::size_t rep, const FailurePolicy& policy,
    obs::ReplicationProbe* probe,
    const std::function<void(std::size_t, std::size_t)>& fault_injection,
    const SnapshotSpec* snapshot, const Attempt& run_attempt) {
  detail::ReplicationOutcome out;
  const std::size_t max_attempts =
      policy.mode == FailurePolicy::Mode::kRetry ? 1 + policy.max_retries : 1;
  // Seed-derivation step: stays at the canonical replication seed across
  // transient failures, advances to a fresh attempt substream only after
  // deterministic ones (same seed would just reproduce the failure).
  std::uint64_t seed_step = 0;
  ErrorCode last_code = ErrorCode::kModelError;
  std::string last_message;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    out.attempts = attempt + 1;
    try {
      if (fault_injection) fault_injection(rep, attempt);
    } catch (const std::exception& e) {
      last_code = ErrorCode::kInjectedFault;
      last_message = e.what();
      continue;
    }
    try {
      const std::uint64_t seed = sim::replication_attempt_seed(master_seed, rep, seed_step);
      // A fresh probe per attempt: a failed attempt's partial counts must
      // not leak into the telemetry of the attempt that succeeds.
      obs::ReplicationProbe attempt_probe;
      ReplicationResult r = run_attempt(seed, probe != nullptr ? &attempt_probe : nullptr);
      if (!finite_result(r)) {
        last_code = ErrorCode::kNonFiniteReward;
        last_message = "useful_fraction = " + std::to_string(r.useful_fraction);
        ++seed_step;
        continue;
      }
      out.ok = true;
      out.result = r;
      if (probe != nullptr) *probe = attempt_probe;
      if (attempt > 0) {
        out.failure = ReplicationFailure{rep, out.attempts, last_code, last_message};
      }
      return out;
    } catch (const sim::EventBudgetExceeded& e) {
      last_code = ErrorCode::kEventBudgetExceeded;
      last_message = e.what();
    } catch (const san::LivelockError& e) {
      last_code = ErrorCode::kLivelock;
      last_message = e.what();
    } catch (const snapshot::SnapshotError& e) {
      last_code = snapshot_error_code(e.fault());
      last_message = e.what();
    } catch (const SimError& e) {
      last_code = e.code();
      last_message = e.what();
    } catch (const std::exception& e) {
      last_code = ErrorCode::kModelError;
      last_message = e.what();
    }
    // A drain stop is not a failure: the snapshot just written IS the
    // resume point, so never retry past it and never delete it.
    if (last_code == ErrorCode::kInterrupted) break;
    if (error_is_deterministic(last_code)) ++seed_step;
    // A snapshot left by the failed attempt would make the retry resume
    // mid-failure (or re-reject a corrupt file forever); retries start
    // clean, so a recovered transient failure stays bit-identical to a
    // clean run.
    if (snapshot != nullptr && snapshot->enabled() && attempt + 1 < max_attempts) {
      snapshot::remove_snapshot_file(snapshot->path);
    }
  }
  out.ok = false;
  out.failure = ReplicationFailure{rep, out.attempts, last_code, last_message};
  // Permanent failure (skip policy, retries exhausted, or fail-fast): the
  // last attempt's snapshot must not linger in snapshot_dir — nothing will
  // ever resume it, and a later run of the same point would wrongly resume
  // mid-failure.  Two exceptions keep crash-resume intact: a drain stop
  // (kInterrupted) and a watchdog kill (kEventBudgetExceeded) both stop a
  // healthy replication mid-flight, and the snapshot just written IS the
  // restart's resume point.
  if (snapshot != nullptr && snapshot->enabled() && last_code != ErrorCode::kInterrupted &&
      last_code != ErrorCode::kEventBudgetExceeded) {
    snapshot::remove_snapshot_file(snapshot->path);
  }
  return out;
}

}  // namespace

namespace detail {

ReplicationOutcome run_replication_guarded(
    const Parameters& params, EngineKind engine, std::uint64_t master_seed, std::size_t rep,
    double transient, double horizon, const FailurePolicy& policy, const WatchdogSpec& watchdog,
    obs::ReplicationProbe* probe,
    const std::function<void(std::size_t, std::size_t)>& fault_injection,
    sim::SchedulerKind scheduler, const SnapshotSpec* snapshot) {
  return guard_attempts(master_seed, rep, policy, probe, fault_injection, snapshot,
                        [&](std::uint64_t seed, obs::ReplicationProbe* attempt_probe) {
                          return run_replication(params, engine, seed, transient, horizon,
                                                 attempt_probe, watchdog.max_events, scheduler,
                                                 snapshot);
                        });
}

ReplicationOutcome run_replication_guarded(
    std::uint64_t master_seed, std::size_t rep, const FailurePolicy& policy,
    obs::ReplicationProbe* probe,
    const std::function<void(std::size_t, std::size_t)>& fault_injection,
    const SnapshotSpec* snapshot, const ReplicationAttempt& run_attempt) {
  return guard_attempts(master_seed, rep, policy, probe, fault_injection, snapshot, run_attempt);
}

}  // namespace detail

namespace {

/// Fold per-replication outcomes into the aggregate under the policy.
/// Fail-fast (and retry exhaustion) rethrow the failure with the smallest
/// replication index — deterministic for any thread count, unlike the
/// first-by-wall-clock exception ThreadPool::wait would have surfaced.
RunResult collect_outcomes(const std::vector<detail::ReplicationOutcome>& outcomes,
                           const FailurePolicy& policy, double confidence_level,
                           const Parameters& params) {
  std::vector<ReplicationResult> successes;
  successes.reserve(outcomes.size());
  FailureAccounting accounting;
  for (const auto& o : outcomes) {
    if (o.attempts == 0) continue;  // abandoned after a fail-fast bail-out
    if (o.ok) {
      successes.push_back(o.result);
      if (o.attempts > 1) accounting.recovered.push_back(o.failure);
      continue;
    }
    if (policy.mode == FailurePolicy::Mode::kSkip) {
      accounting.skipped.push_back(o.failure);
      continue;
    }
    const std::string context = "replication " + std::to_string(o.failure.replication) +
                                " failed after " + std::to_string(o.failure.attempts) +
                                " attempt(s): " + o.failure.message;
    if (policy.mode == FailurePolicy::Mode::kRetry) {
      throw SimError(ErrorCode::kRetriesExhausted, context);
    }
    throw SimError(o.failure.code, context);
  }
  RunResult result = aggregate_replications(successes, confidence_level, params);
  result.failures = std::move(accounting);
  return result;
}

/// Per-replication SnapshotSpec under `spec` (disabled when snapshots are
/// off).  One file per replication index, context bound to this exact run.
SnapshotSpec replication_snapshot(const Parameters& params, const RunSpec& spec,
                                  EngineKind engine, std::size_t rep) {
  SnapshotSpec snap;
  if (spec.snapshot_every_events == 0) return snap;
  snap.every = spec.snapshot_every_events;
  snap.path = spec.snapshot_dir + "/rep-" + std::to_string(rep) + ".snap";
  snap.context =
      snapshot_run_context(params, spec.seed, spec.transient, spec.horizon, engine, rep);
  return snap;
}

/// Run replications [begin, begin + count) of the grid into `outcomes`
/// (already sized), bailing early once `bail` is set.  Shared verbatim by
/// the fixed path (one call covering everything) and the adaptive path
/// (one call per round), so replication i behaves identically in both.
void run_round(const Parameters& params, const RunSpec& spec, EngineKind engine,
               std::vector<detail::ReplicationOutcome>& outcomes, std::size_t begin,
               std::size_t count, std::atomic<bool>& bail) {
  parallel_for_workers(obs_jobs(spec), count, [&](std::size_t worker, std::size_t k) {
    const std::size_t i = begin + k;
    if (bail.load(std::memory_order_relaxed)) return;
    if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) return;
    const obs::WorkerTimer timer(spec.metrics, worker);
    obs::ReplicationProbe probe;
    const SnapshotSpec snap = replication_snapshot(params, spec, engine, i);
    outcomes[i] = detail::run_replication_guarded(
        params, engine, spec.seed, i, spec.transient, spec.horizon, spec.on_failure,
        spec.watchdog, spec.metrics != nullptr ? &probe : nullptr, spec.fault_injection,
        spec.scheduler, snap.enabled() ? &snap : nullptr);
    if (!outcomes[i].ok && spec.on_failure.mode != FailurePolicy::Mode::kSkip) {
      bail.store(true, std::memory_order_relaxed);
    }
    if (outcomes[i].ok && spec.metrics != nullptr) spec.metrics->shard(worker).absorb(probe);
    if (spec.progress != nullptr) spec.progress->tick();
  });
}

/// Precision-driven variant of run_model: deterministic rounds until the
/// stopper is satisfied.  The stopping decision is a pure function of the
/// aggregate over completed rounds (never wall-clock or arrival order),
/// and replication i keeps its canonical seed regardless of which round
/// dispatched it, so the result is bit-identical for any job count.
RunResult run_adaptive(const Parameters& params, const RunSpec& spec, EngineKind engine) {
  const stats::SequentialStopper stopper(spec.sequential);
  if (spec.progress != nullptr) {
    // The budget ceiling, not a promise: adaptive runs usually stop early.
    spec.progress->begin("run_model", spec.sequential.max_replications);
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<detail::ReplicationOutcome> outcomes;
  std::vector<std::uint32_t> rounds;
  std::atomic<bool> bail{false};
  std::size_t batch = stopper.initial_round();
  for (;;) {
    const std::size_t begin = outcomes.size();
    outcomes.resize(begin + batch);
    rounds.push_back(static_cast<std::uint32_t>(batch));
    run_round(params, spec, engine, outcomes, begin, batch, bail);
    if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) break;
    // A failure under fail-fast/retry stops scheduling; collect_outcomes
    // below rethrows it deterministically by smallest replication index.
    if (bail.load(std::memory_order_relaxed)) break;
    stats::Summary agg;
    for (const auto& o : outcomes) {
      if (o.ok) agg.add(o.result.useful_fraction);
    }
    const stats::SequentialDecision d =
        stopper.decide(outcomes.size(), agg, spec.confidence_level);
    if (d.stop) break;
    batch = d.next_batch;
  }
  if (spec.metrics != nullptr) spec.metrics->add_wall_seconds(seconds_since(t0));
  if (spec.progress != nullptr) spec.progress->finish();
  if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) {
    throw SimError(ErrorCode::kInterrupted, "run_model: cancelled");
  }
  RunResult result = collect_outcomes(outcomes, spec.on_failure, spec.confidence_level, params);
  result.rounds = std::move(rounds);
  return result;
}

}  // namespace

RunResult run_model(const Parameters& params, const RunSpec& spec, EngineKind engine) {
  params.validate();
  spec.validate();
  if (params.proactive_enabled()) {
    // The base engines would silently ignore the predictor and policy;
    // refuse instead of reporting misleading results.
    throw std::invalid_argument(
        "run_model: proactive fault tolerance runs under proactive::run_proactive "
        "(CLI: --mode proactive)");
  }
  if (spec.sequential.enabled()) return run_adaptive(params, spec, engine);
  if (spec.progress != nullptr) spec.progress->begin("run_model", spec.replications);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<detail::ReplicationOutcome> outcomes(spec.replications);
  std::atomic<bool> bail{false};
  run_round(params, spec, engine, outcomes, 0, spec.replications, bail);
  if (spec.metrics != nullptr) spec.metrics->add_wall_seconds(seconds_since(t0));
  if (spec.progress != nullptr) spec.progress->finish();
  if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) {
    throw SimError(ErrorCode::kInterrupted, "run_model: cancelled");
  }
  return collect_outcomes(outcomes, spec.on_failure, spec.confidence_level, params);
}

double total_useful_work(const Parameters& params, const RunSpec& spec, EngineKind engine) {
  return run_model(params, spec, engine).total_useful_work;
}

}  // namespace ckptsim
