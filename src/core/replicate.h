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
/// successes plus FailureAccounting.  A ReplicationRun keeps one per
/// point.  Fixed points run one round; adaptive points (a non-null
/// stopper) run SequentialStopper rounds and record their sizes.  land()
/// may run concurrently for distinct replications; everything else belongs
/// to the thread that landed a round's last replication, or to callers
/// that serialize access.
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
  /// Runs once per point that a failure fails (fail or retry policy), on the
  /// worker that lands the failing round, with the point's first failed
  /// replication; the point opens no further round and the other points run
  /// on.  Unset = fail fast: wait() throws the failure.
  std::function<void(std::size_t point, const ReplicationFailure& failure)> fatal{};
};

/// One replicate() call as an object: independent replications of
/// `what.points` points, each point in its own rounds, on one lane of a
/// worker pool.  Construction queues every point's first round on the lane;
/// wait() blocks until the run ends and throws as replicate() does.
///
/// The lane is `spec.exec.lane` when set; otherwise the run makes one pool
/// of min(spec.exec.resolve(), its replication budget, the metrics
/// registry's shards) threads.  Never wait from a task of the pool the run
/// targets: a waiting worker can starve the pool.  With a lane, a metrics
/// registry with fewer shards than the lane's pool has workers is a
/// std::invalid_argument.  `spec` must outlive the run, and no other work
/// may use its lane meanwhile.
///
/// Fixed mode is one round of `spec.replications`; adaptive mode
/// (spec.sequential) runs SequentialStopper rounds, and the worker that
/// lands a point's round opens that point's next one, with no barrier
/// across points.  Replication r of every point seeds from
/// sim::replication_seed(spec.seed, r) whichever round runs it, so results
/// are bit-identical for any job count and points stay CRN-paired.
///
/// Without `what.fatal`, a failure that fails its point (fail-fast, retries
/// exhausted) abandons the replications after it in (point, replication)
/// order and the rounds of later points; earlier points run to their end.
/// wait() then throws the first failed replication of the smallest failing
/// point, the same for any job count.  `spec.cancel` abandons unstarted
/// replications and opens no round; a replication a drain parks
/// (kInterrupted through SnapshotSpec::stop) lands nothing.  Either way a
/// point is left unfinished and wait() throws SimError(kInterrupted,
/// what.cancelled); a run whose every point finished as the flag rose
/// completed.
template <typename R>
class ReplicationRun {
 public:
  ReplicationRun(const RunSpec& spec, Replicated<R> what) : spec_(spec), what_(std::move(what)) {
    if (spec.sequential.enabled()) stopper_.emplace(spec.sequential);
    points_.reserve(what_.points);
    for (std::size_t p = 0; p < what_.points; ++p) {
      points_.emplace_back(stopper_ ? &*stopper_ : nullptr);
    }
    // The budget ceiling, not a promise: adaptive points usually stop early.
    const std::size_t budget =
        what_.points * (stopper_ ? spec.sequential.max_replications : spec.replications);
    if (spec.progress != nullptr) spec.progress->begin(what_.progress_label, budget);
    lane_ = spec.exec.lane;
    if (lane_ == nullptr) {
      std::size_t jobs = std::min(spec.exec.resolve(), budget);
      if (spec.metrics != nullptr) jobs = std::min(jobs, spec.metrics->workers());
      lane_ = &own_lane_.emplace(own_pool_.emplace(jobs));
    } else if (spec.metrics != nullptr && spec.metrics->workers() < lane_->pool().size()) {
      throw std::invalid_argument(
          "replicate: the metrics registry has fewer shards than the lane's pool has workers");
    }
    for (std::size_t p = 0; p < what_.points; ++p) {
      open_round(p, stopper_ ? stopper_->initial_round() : spec.replications);
    }
    // A cancel that raced the submissions still drops every queued task.
    if (cancelled()) lane_->drop();
  }

  /// Drops what is queued and waits for what runs: no task outlives the run.
  ~ReplicationRun() {
    lane_->drop();
    try {
      lane_->wait();
    } catch (...) {  // a task's error is wait()'s to report, never the destructor's
    }
  }

  ReplicationRun(const ReplicationRun&) = delete;
  ReplicationRun& operator=(const ReplicationRun&) = delete;

  /// Block until every round has landed or been abandoned.  Rethrows a
  /// task's exception; throws SimError(kInterrupted) when a cancel or a
  /// parked replication left a point unfinished, then the fail-fast
  /// failure.  Call once.
  void wait() {
    lane_->wait();
    if (own_pool_ && spec_.metrics != nullptr) {
      spec_.metrics->add_wall_seconds(std::chrono::duration_cast<std::chrono::duration<double>>(
                                          std::chrono::steady_clock::now() - t0_)
                                          .count());
    }
    if (spec_.progress != nullptr) spec_.progress->finish();
    // A point that never ended was stopped by a cancel or a drain's park,
    // unless a fail-fast failure abandoned it.
    if (ended_.load() < what_.points && (cancelled() || bail_.load() == kNone)) {
      throw SimError(ErrorCode::kInterrupted, what_.cancelled);
    }
    if (what_.fatal) return;
    for (std::size_t p = 0; p < what_.points; ++p) {
      const detail::Outcome<R>* f = points_[p].fatal(spec_.on_failure);
      if (f == nullptr) continue;
      throw SimError(spec_.on_failure.mode == FailurePolicy::Mode::kRetry
                         ? ErrorCode::kRetriesExhausted
                         : f->failure.code,
                     (what_.failure_context ? what_.failure_context(p) : std::string()) +
                         describe_failure(f->failure));
    }
  }

 private:
  static constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  /// (point, replication) as one number ordered like the pair.
  static std::uint64_t key(std::size_t p, std::size_t r) {
    return (static_cast<std::uint64_t>(p) << 32) | r;
  }

  [[nodiscard]] bool cancelled() const {
    return spec_.cancel != nullptr && spec_.cancel->load(std::memory_order_relaxed);
  }

  /// Queue a round of `size` replications of point `p`, which has none in
  /// flight.  Its first tasks may land the round and open the next one
  /// before this loop ends, so the bound is fixed up front.
  void open_round(std::size_t p, std::size_t size) {
    const std::size_t begin = points_[p].open(size);
    for (std::size_t r = begin; r < begin + size; ++r) {
      lane_->submit([this, p, r](std::size_t worker) { run_replication(worker, p, r); });
    }
  }

  void run_replication(std::size_t worker, std::size_t p, std::size_t r) {
    if (cancelled() || key(p, r) > bail_.load(std::memory_order_relaxed)) return;  // abandoned
    const obs::WorkerTimer timer(spec_.metrics, worker);
    obs::ReplicationProbe probe;
    const SnapshotSpec snap = what_.snapshot ? what_.snapshot(p, r) : SnapshotSpec{};
    const SnapshotSpec* const snap_ptr = snap.enabled() ? &snap : nullptr;
    detail::Outcome<R> outcome = detail::guard_attempts(
        spec_.seed, r, spec_.on_failure, spec_.metrics != nullptr ? &probe : nullptr,
        spec_.fault_injection, snap_ptr,
        [&](std::uint64_t seed, obs::ReplicationProbe* attempt_probe) {
          return what_.attempt(p, seed, attempt_probe, snap_ptr);
        });
    if (spec_.progress != nullptr) spec_.progress->tick();
    if (outcome.ok && spec_.metrics != nullptr) spec_.metrics->shard(worker).absorb(probe);
    // Parked by a drain: its snapshot is the resume point.
    if (!outcome.ok && outcome.failure.code == ErrorCode::kInterrupted) return;
    if (!outcome.ok && !what_.fatal && spec_.on_failure.mode != FailurePolicy::Mode::kSkip) {
      std::uint64_t seen = bail_.load();
      while (key(p, r) < seen && !bail_.compare_exchange_weak(seen, key(p, r))) {
      }
    }
    if (!points_[p].land(r, std::move(outcome))) return;
    const detail::Outcome<R>* const f = points_[p].fatal(spec_.on_failure);
    const std::size_t next =
        f != nullptr ? 0 : points_[p].next_round(what_.reward, spec_.confidence_level);
    if (next != 0) {
      if (!cancelled() && key(p, 0) < bail_.load()) open_round(p, next);
      return;
    }
    ended_.fetch_add(1);
    if (f == nullptr) {
      what_.finish(p, points_[p]);
    } else if (what_.fatal) {
      what_.fatal(p, f->failure);
    }
  }

  const RunSpec& spec_;
  const Replicated<R> what_;
  std::optional<stats::SequentialStopper> stopper_;
  std::vector<PointRounds<R>> points_;
  std::atomic<std::uint64_t> bail_{kNone};  ///< key of the earliest fail-fast failure
  std::atomic<std::size_t> ended_{0};  ///< points whose last round landed
  const std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  WorkerPool::Lane* lane_ = nullptr;
  // Declared after everything its tasks read, so a pool torn down by an
  // exception never outlives their state.
  std::optional<WorkerPool> own_pool_;
  std::optional<WorkerPool::Lane> own_lane_;
};

/// The replication driver behind run_model, sweep, san::Study::run,
/// run_proactive and multi-job run_interference: a ReplicationRun, waited
/// for.
template <typename R>
void replicate(const RunSpec& spec, const Replicated<R>& what) {
  ReplicationRun<R>(spec, what).wait();
}

}  // namespace ckptsim
