#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/fault.h"
#include "src/core/results.h"
#include "src/core/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/sim/rng.h"
#include "src/stats/sequential.h"

namespace ckptsim {

/// Why `r` cannot be aggregated (a NaN/Inf reward), or empty when it can: a
/// non-finite replication is a failed attempt, retried or skipped like any
/// other.  Result types with rewards to check overload this (found by
/// argument-dependent lookup); the rest are never rejected.
[[nodiscard]] std::string nonfinite_reason(const ReplicationResult& r);
template <typename R>
[[nodiscard]] std::string nonfinite_reason(const R&) {
  return {};
}

/// "replication R failed after A attempt(s): MESSAGE".
[[nodiscard]] std::string describe_failure(const ReplicationFailure& f);

namespace detail {

/// One replication run under a FailurePolicy: a result (possibly after
/// retries — then `failure` records what was recovered from) or a permanent
/// failure.  `attempts == 0` marks a replication abandoned before its first
/// attempt (fail-fast bail-out or cancellation).
template <typename R>
struct Outcome {
  bool ok = false;
  R result;                    ///< valid when ok
  ReplicationFailure failure;  ///< last failure; meaningful when !ok or attempts > 1
  std::size_t attempts = 0;    ///< attempts consumed
};

/// Classify the exception in flight into the ErrorCode taxonomy; one not
/// derived from std::exception is rethrown.
void classify_failure(ErrorCode* code, std::string* message);

/// Remove the file of `snapshot` when it is non-null and enabled.
void discard_snapshot(const SnapshotSpec* snapshot);

/// Replication `rep` under `policy`, around one attempt `(seed, probe) ->
/// R`: every attempt failure is caught and classified, so the drivers'
/// tasks never throw.  Attempts use the canonical stream
/// sim::replication_attempt_seed(master_seed, rep, 0) and advance to a
/// fresh substream only after failures that are deterministic in (params,
/// seed), so a transient failure retried successfully reproduces a clean
/// run bit-identically.  Each attempt reports into a fresh probe, so a
/// failed attempt's partial counts never reach the telemetry.
template <typename Attempt>
auto guard_attempts(std::uint64_t master_seed, std::size_t rep, const FailurePolicy& policy,
                    obs::ReplicationProbe* probe,
                    const std::function<void(std::size_t, std::size_t)>& fault_injection,
                    const SnapshotSpec* snapshot, const Attempt& run_attempt)
    -> Outcome<std::invoke_result_t<const Attempt&, std::uint64_t, obs::ReplicationProbe*>> {
  Outcome<std::invoke_result_t<const Attempt&, std::uint64_t, obs::ReplicationProbe*>> out;
  const std::size_t max_attempts =
      policy.mode == FailurePolicy::Mode::kRetry ? 1 + policy.max_retries : 1;
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
      obs::ReplicationProbe attempt_probe;
      auto r = run_attempt(sim::replication_attempt_seed(master_seed, rep, seed_step),
                           probe != nullptr ? &attempt_probe : nullptr);
      std::string reason = nonfinite_reason(r);
      if (!reason.empty()) {
        last_code = ErrorCode::kNonFiniteReward;
        last_message = std::move(reason);
        ++seed_step;
        continue;
      }
      out.ok = true;
      out.result = std::move(r);
      if (probe != nullptr) *probe = attempt_probe;
      if (attempt > 0) out.failure = ReplicationFailure{rep, out.attempts, last_code, last_message};
      return out;
    } catch (...) {
      classify_failure(&last_code, &last_message);
    }
    // A drain stop is not a failure: the snapshot just written is the
    // resume point, so never retry past it and never delete it.
    if (last_code == ErrorCode::kInterrupted) break;
    if (error_is_deterministic(last_code)) ++seed_step;
    // Retries start clean, never from the failed attempt's snapshot.
    if (attempt + 1 < max_attempts) discard_snapshot(snapshot);
  }
  out.failure = ReplicationFailure{rep, out.attempts, last_code, last_message};
  // Nothing resumes a permanent failure's snapshot, except after a drain
  // stop or a watchdog kill: both stop a healthy replication mid-flight.
  if (last_code != ErrorCode::kInterrupted && last_code != ErrorCode::kEventBudgetExceeded) {
    discard_snapshot(snapshot);
  }
  return out;
}

}  // namespace detail

/// One point's replications: outcomes by replication index, round sizes,
/// the stop/continue decision, and the reduction of the outcomes to
/// successes plus FailureAccounting.  ckptsim::replicate keeps one per
/// point, and so does the campaign server.  Fixed points run one round;
/// adaptive points (a non-null stopper) run SequentialStopper rounds and
/// record their sizes.  land() may run concurrently for distinct
/// replications; everything else belongs to the thread that landed a
/// round's last replication, or to callers that serialize access.
template <typename R>
class PointRounds {
 public:
  explicit PointRounds(const stats::SequentialStopper* stopper = nullptr) : stopper_(stopper) {}

  /// Schedule a round of `size` more replications; returns the first index.
  std::size_t open(std::size_t size) {
    const std::size_t begin = outcomes_.size();
    outcomes_.resize(begin + size);
    if (stopper_ != nullptr) rounds_.push_back(static_cast<std::uint32_t>(size));
    unlanded_->store(size, std::memory_order_relaxed);
    return begin;
  }

  [[nodiscard]] std::size_t scheduled() const noexcept { return outcomes_.size(); }

  /// Store replication `rep`'s outcome; true for the call that lands the
  /// open round's last replication (which then sees every outcome).  A
  /// round with an abandoned replication never completes.
  bool land(std::size_t rep, detail::Outcome<R>&& outcome) {
    outcomes_[rep] = std::move(outcome);
    return unlanded_->fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  /// The failure with the smallest replication index that fails the point
  /// under `policy` (every failure, except under skip); nullptr when none.
  [[nodiscard]] const detail::Outcome<R>* fatal(const FailurePolicy& policy) const {
    if (policy.mode == FailurePolicy::Mode::kSkip) return nullptr;
    for (const auto& o : outcomes_) {
      if (o.attempts > 0 && !o.ok) return &o;
    }
    return nullptr;
  }

  /// After a complete round: the size of the next round, or 0 when the
  /// point is finished.  A pure function of the successful rewards in
  /// replication-index order, so the schedule is the same for any job count.
  template <typename Reward>
  [[nodiscard]] std::size_t next_round(const Reward& reward, double confidence_level) const {
    if (stopper_ == nullptr) return 0;
    stats::Summary agg;
    for (const auto& o : outcomes_) {
      if (o.ok) agg.add(reward(o.result));
    }
    const stats::SequentialDecision d = stopper_->decide(outcomes_.size(), agg, confidence_level);
    return d.stop ? 0 : d.next_batch;
  }

  /// A finished point's successful results in replication-index order;
  /// skipped and recovered replications go to `accounting`.
  [[nodiscard]] std::vector<R> successes(FailureAccounting* accounting) const {
    std::vector<R> out;
    for (const auto& o : outcomes_) {
      if (o.attempts == 0) continue;
      if (!o.ok) {
        accounting->skipped.push_back(o.failure);
        continue;
      }
      out.push_back(o.result);
      if (o.attempts > 1) accounting->recovered.push_back(o.failure);
    }
    return out;
  }

  /// Round sizes, in order; empty for fixed points.
  [[nodiscard]] const std::vector<std::uint32_t>& rounds() const noexcept { return rounds_; }

 private:
  const stats::SequentialStopper* stopper_;
  std::vector<detail::Outcome<R>> outcomes_;
  std::vector<std::uint32_t> rounds_;
  std::unique_ptr<std::atomic<std::size_t>> unlanded_ =
      std::make_unique<std::atomic<std::size_t>>(0);
};

/// What ckptsim::replicate runs: `points` points of one model.
template <typename R>
struct Replicated {
  std::size_t points = 1;
  /// One attempt of a replication of `point`: simulate with `seed`; report
  /// telemetry into `probe` and capture `snapshot` when they are non-null.
  std::function<R(std::size_t point, std::uint64_t seed, obs::ReplicationProbe* probe,
                   const SnapshotSpec* snapshot)>
      attempt{};
  /// The reward the sequential stopper watches.
  std::function<double(const R&)> reward{};
  /// Runs once per point, on the worker that lands the last replication of
  /// its final round: aggregate, and journal or cache as needed.
  std::function<void(std::size_t point, const PointRounds<R>& rounds)> finish{};
  /// Snapshot control of (point, replication); unset = no snapshots.
  std::function<SnapshotSpec(std::size_t point, std::size_t rep)> snapshot{};
  std::string progress_label{};  ///< progress heartbeat label
  std::string cancelled{};       ///< context of the SimError(kInterrupted)
  /// Prefix naming `point` in the failure text; unset = none.
  std::function<std::string(std::size_t point)> failure_context{};
};

/// The replication driver behind run_model, sweep, san::Study::run,
/// run_proactive and multi-job run_interference: independent replications
/// of `what.points` points in global rounds on one lane of a worker pool.
/// The lane is `spec.exec.lane` when set; otherwise the call makes one
/// pool of min(spec.exec.resolve(), its replication budget, the metrics
/// registry's shards) threads.  Never call it from a task of the pool it
/// targets: a waiting worker can starve the pool.  With a lane, a metrics
/// registry with fewer shards than the lane's pool has workers is a
/// std::invalid_argument.
///
/// Fixed mode is one round of `spec.replications`; adaptive mode
/// (spec.sequential) dispatches every active point's next SequentialStopper
/// round together.  Replication r of every point seeds from
/// sim::replication_seed(spec.seed, r) whichever round runs it, so results
/// are bit-identical for any job count and points stay CRN-paired.
///
/// A failure that fails its point (fail-fast, retries exhausted) stops
/// scheduling, but the replications before it in (point, replication)
/// order still run, so the failure thrown — the smallest such index — is
/// the same for any job count.  `spec.cancel` abandons unstarted
/// replications and throws SimError(kInterrupted, what.cancelled).
template <typename R>
void replicate(const RunSpec& spec, const Replicated<R>& what) {
  std::optional<stats::SequentialStopper> stopper;
  if (spec.sequential.enabled()) stopper.emplace(spec.sequential);
  std::vector<PointRounds<R>> points;
  std::vector<std::size_t> next;  // size of each point's next round; 0 = none
  for (std::size_t p = 0; p < what.points; ++p) {
    points.emplace_back(stopper ? &*stopper : nullptr);
    next.push_back(stopper ? stopper->initial_round() : spec.replications);
  }
  // The budget ceiling, not a promise: adaptive points usually stop early.
  const std::size_t budget =
      what.points * (stopper ? spec.sequential.max_replications : spec.replications);
  if (spec.progress != nullptr) spec.progress->begin(what.progress_label, budget);
  const auto t0 = std::chrono::steady_clock::now();
  const auto cancelled = [&spec] {
    return spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed);
  };
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::pair<std::size_t, std::size_t>> tasks;  // (point, replication)
  std::atomic<std::size_t> bail_at{kNone};  // task of the round's earliest fatal failure
  // Declared after everything its tasks read, so a pool torn down by an
  // exception never outlives their state.
  std::optional<WorkerPool> own_pool;
  std::optional<WorkerPool::Lane> own_lane;
  WorkerPool::Lane* lane = spec.exec.lane;
  if (lane == nullptr) {
    std::size_t jobs = std::min(spec.exec.resolve(), budget);
    if (spec.metrics != nullptr) jobs = std::min(jobs, spec.metrics->workers());
    lane = &own_lane.emplace(own_pool.emplace(jobs));
  } else if (spec.metrics != nullptr && spec.metrics->workers() < lane->pool().size()) {
    throw std::invalid_argument(
        "replicate: the metrics registry has fewer shards than the lane's pool has workers");
  }
  for (;;) {
    tasks.clear();
    for (std::size_t p = 0; p < what.points; ++p) {
      if (next[p] == 0) continue;
      for (std::size_t r = points[p].open(next[p]); r < points[p].scheduled(); ++r) {
        tasks.emplace_back(p, r);
      }
      next[p] = 0;
    }
    if (tasks.empty()) break;
    bail_at.store(kNone);
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      lane->submit([&, k](std::size_t worker) {
        if (k > bail_at.load(std::memory_order_relaxed) || cancelled()) return;  // abandoned
        const auto [p, r] = tasks[k];
        const obs::WorkerTimer timer(spec.metrics, worker);
        obs::ReplicationProbe probe;
        const SnapshotSpec snap = what.snapshot ? what.snapshot(p, r) : SnapshotSpec{};
        const SnapshotSpec* const snap_ptr = snap.enabled() ? &snap : nullptr;
        detail::Outcome<R> outcome = detail::guard_attempts(
            spec.seed, r, spec.on_failure, spec.metrics != nullptr ? &probe : nullptr,
            spec.fault_injection, snap_ptr,
            [&](std::uint64_t seed, obs::ReplicationProbe* attempt_probe) {
              return what.attempt(p, seed, attempt_probe, snap_ptr);
            });
        if (!outcome.ok && spec.on_failure.mode != FailurePolicy::Mode::kSkip) {
          std::size_t seen = bail_at.load();
          while (k < seen && !bail_at.compare_exchange_weak(seen, k)) {
          }
        }
        if (outcome.ok && spec.metrics != nullptr) spec.metrics->shard(worker).absorb(probe);
        if (spec.progress != nullptr) spec.progress->tick();
        if (!points[p].land(r, std::move(outcome))) return;
        if (points[p].fatal(spec.on_failure) != nullptr) return;
        next[p] = points[p].next_round(what.reward, spec.confidence_level);
        if (next[p] == 0) what.finish(p, points[p]);
      });
    }
    // A cancel that raced the submissions still drops every queued task.
    if (cancelled()) lane->drop();
    lane->wait();
    if (bail_at.load() != kNone || cancelled()) break;
  }
  if (spec.metrics != nullptr) {
    spec.metrics->add_wall_seconds(std::chrono::duration_cast<std::chrono::duration<double>>(
                                       std::chrono::steady_clock::now() - t0)
                                       .count());
  }
  if (spec.progress != nullptr) spec.progress->finish();
  if (cancelled()) throw SimError(ErrorCode::kInterrupted, what.cancelled);
  for (std::size_t p = 0; p < what.points; ++p) {
    const detail::Outcome<R>* f = points[p].fatal(spec.on_failure);
    if (f == nullptr) continue;
    throw SimError(spec.on_failure.mode == FailurePolicy::Mode::kRetry
                       ? ErrorCode::kRetriesExhausted
                       : f->failure.code,
                   (what.failure_context ? what.failure_context(p) : std::string()) +
                       describe_failure(f->failure));
  }
}

}  // namespace ckptsim
