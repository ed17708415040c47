#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/pending_set.h"
#include "src/sim/rate_integral.h"
#include "src/trace/event_log.h"

namespace ckptsim::platform {

/// How the shared parallel file system orders and serves concurrent
/// checkpoint/recovery transfers from the K jobs of an interference mix.
enum class PfsPolicy {
  /// Processor sharing: every in-flight transfer receives bandwidth / n.
  kFairShare,
  /// One transfer at a time at full bandwidth, in arrival order.
  kFcfs,
  /// Herault/Robert-style cooperative checkpointing: a job must hold the
  /// exclusive PFS reservation before it quiesces, and keeps computing
  /// while it waits in the grant queue.  Transfers then run one at a time
  /// at full bandwidth (recovery reads bypass the reservation — a failed
  /// job cannot compute while waiting, so there is nothing to save).
  kBlockingCooperative,
  /// Fair-share service, but each job's first checkpoint initiation is
  /// offset by j * interval / K so the periodic dumps interleave instead
  /// of colliding (the offset is applied by the interference model; the
  /// serving discipline here equals kFairShare).
  kStaggered,
};

/// The policies' one spelling each, in enum order: the choices that
/// `parse_choice` reads for `--pfs-policy` and the protocol's "policy".
inline constexpr std::string_view kPfsPolicies = "fair|fcfs|coop|stagger";

[[nodiscard]] const char* to_string(PfsPolicy policy) noexcept;

/// Shared-bandwidth transfer server: the single contended PFS of an
/// interference mix.  Jobs submit byte-counted transfer requests; the
/// server serves them under the configured discipline (processor sharing
/// or one-at-a-time FCFS), calls each request's completion callback at the
/// exact finish time, and accounts utilization (busy-time integral) and
/// per-job stretch (actual service span / uncontended ideal).
///
/// The server's events live in its owner's pending set, under keys the
/// owner hands it: one completion key, re-armed at the next finish time
/// (the owner calls complete() when it fires), and one grant-delivery key
/// per job.
///
/// Fully deterministic — the server draws no random numbers, so two runs
/// with the same submission sequence replay identically and the RNG-stream
/// positions of the jobs never depend on the policy (the CRN contract).
class PfsServer {
 public:
  using RequestId = std::uint64_t;

  /// Events go into `pending`: the completion under `complete_key`, job
  /// j's grant delivery under `first_grant_key + j`.  `bandwidth` is
  /// aggregate bytes/s; throws std::invalid_argument unless finite and > 0
  /// (degenerate PFS configs must fail loudly).
  PfsServer(sim::PendingSet& pending, sim::PendingSet::Key complete_key,
            sim::PendingSet::Key first_grant_key, double bandwidth, PfsPolicy policy);
  PfsServer(const PfsServer&) = delete;
  PfsServer& operator=(const PfsServer&) = delete;

  /// Submit a transfer of `bytes` for `job`; `done` fires when it
  /// completes.  Returns an id for cancel().  Throws std::invalid_argument
  /// for non-finite or non-positive byte counts.
  RequestId submit(std::size_t job, double bytes, std::function<void()> done);

  /// Abort an in-flight or queued transfer (no callback fires).  Returns
  /// false when the id is unknown / already completed.
  bool cancel(RequestId id);

  /// The completion key fired: finish the transfers done by now, call
  /// their callbacks and re-arm the key at the next finish time.
  void complete();

  // --- exclusive reservation (kBlockingCooperative) ----------------------
  /// Queue `job` for the exclusive PFS grant.  Once every earlier holder
  /// has released, `job` holds it and its grant key is armed at that
  /// instant (delivery is an event, never synchronous).  An idle server
  /// grants at once.  The owner handles the delivery: by then `job` may
  /// have released the grant again (grant_held_by says).
  void request_grant(std::size_t job);
  /// Drop a not-yet-granted reservation request.  Returns false when `job`
  /// is not waiting.
  bool cancel_grant(std::size_t job);
  /// Release the grant `job` holds, passing it to the next waiter.  Throws
  /// std::logic_error when `job` does not hold it.
  void release_grant(std::size_t job);
  [[nodiscard]] bool grant_held_by(std::size_t job) const noexcept;

  // --- accounting --------------------------------------------------------
  /// Busy-time integral (seconds with >= 1 active transfer) up to `now`.
  [[nodiscard]] double busy_seconds(double now) const { return busy_.value(now); }
  /// Sum of per-request stretch factors completed so far for `job`, where
  /// stretch = (finish - submit) / (bytes / bandwidth) >= 1.
  [[nodiscard]] double stretch_sum(std::size_t job) const;
  [[nodiscard]] std::uint64_t completed(std::size_t job) const;
  [[nodiscard]] std::uint64_t completed_total() const noexcept { return completed_total_; }
  [[nodiscard]] std::uint64_t cancelled_total() const noexcept { return cancelled_total_; }
  /// Transfers currently queued behind the active set (FCFS disciplines
  /// only; 0 under processor sharing, where every transfer is active).
  [[nodiscard]] std::size_t queued_now() const noexcept;
  [[nodiscard]] std::size_t active_now() const noexcept;
  [[nodiscard]] double bandwidth() const noexcept { return bandwidth_; }
  [[nodiscard]] PfsPolicy policy() const noexcept { return policy_; }

  /// Attach trace sinks (not owned; nullptr = off).  The server notes
  /// kPfsRequestQueued on submit, kPfsServiceStarted when a transfer first
  /// receives bandwidth, and kPfsServiceDone on completion — the
  /// queued-vs-active I/O signal the obs layer exports.
  void set_event_log(trace::EventLog* log) noexcept { log_ = log; }
  void set_event_counts(trace::EventCounts* counts) noexcept { counts_ = counts; }

 private:
  struct Transfer {
    RequestId id = 0;
    std::size_t job = 0;
    double bytes = 0.0;
    double remaining = 0.0;  ///< bytes left to move
    double submitted = 0.0;  ///< submission time
    bool started = false;    ///< kPfsServiceStarted already noted
    std::function<void()> done;
  };

  /// True when the discipline serves one transfer at a time.
  [[nodiscard]] bool serial() const noexcept {
    return policy_ == PfsPolicy::kFcfs || policy_ == PfsPolicy::kBlockingCooperative;
  }
  [[nodiscard]] std::size_t active_count() const noexcept {
    if (inflight_.empty()) return 0;
    return serial() ? 1 : inflight_.size();
  }
  /// Move every active transfer forward to `now` at its current share.
  void advance(double now);
  /// Complete finished transfers, re-arm the next completion event, and
  /// refresh the busy rate; fires completion callbacks last.
  void reconcile();
  /// Hand the grant to the first waiter and arm its delivery.
  void grant_next();
  void note(trace::EventKind kind, double value);

  sim::PendingSet& pending_;
  sim::PendingSet::Key complete_key_;
  sim::PendingSet::Key first_grant_key_;
  double bandwidth_;
  PfsPolicy policy_;
  std::vector<Transfer> inflight_;  ///< arrival order; front is the FCFS head
  double last_advance_ = 0.0;
  RequestId next_id_ = 1;

  // exclusive reservation state
  bool grant_busy_ = false;
  std::size_t grant_holder_ = 0;
  std::deque<std::size_t> grant_queue_;  ///< waiting jobs, in request order

  sim::RateIntegral busy_;
  std::vector<double> stretch_sum_;        // indexed by job
  std::vector<std::uint64_t> completed_;   // indexed by job
  std::uint64_t completed_total_ = 0;
  std::uint64_t cancelled_total_ = 0;
  trace::EventLog* log_ = nullptr;
  trace::EventCounts* counts_ = nullptr;
};

}  // namespace ckptsim::platform
