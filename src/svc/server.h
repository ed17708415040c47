#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/runner.h"
#include "src/obs/metrics.h"
#include "src/stats/sequential.h"
#include "src/svc/cache.h"
#include "src/svc/ledger.h"
#include "src/svc/protocol.h"

namespace ckptsim::svc {

/// Configuration of a CampaignServer.
struct ServerConfig {
  /// Worker threads simulating replications; 0 = auto (CKPTSIM_JOBS, then
  /// hardware concurrency), exactly like RunSpec's ExecSpec.
  std::size_t workers = 0;
  /// Admission control: campaigns concurrently queued or running.  A sweep
  /// arriving while this many campaigns are in flight gets a "rejected"
  /// backpressure response instead of unbounded queue growth.
  std::size_t max_queue_depth = 8;
  /// Result-cache journal path; empty = memory-only (tests, benches).
  std::string cache_path;
  /// Campaign-ledger path (fsync'd JSONL beside the cache): admitted
  /// campaigns are recorded before any replication runs and retired on
  /// completion, so a restart re-admits whatever a crash or drain left
  /// unfinished.  Empty = no ledger (campaigns die with the process).
  std::string ledger_path;
  /// Event-granular crash-resume of in-flight replications: every
  /// `snapshot_every_events` fired events each replication snapshots its
  /// full simulator state into `snapshot_dir` (created on demand), keyed by
  /// the point's cache fingerprint plus the replication index.  0 = off.
  std::uint64_t snapshot_every_events = 0;
  std::string snapshot_dir;
  /// Optional external metrics registry.  Service counters (requests,
  /// hits/misses, queue depth) are bumped on it; when null the server owns
  /// a private registry.  Must outlive the server.
  obs::Metrics* metrics = nullptr;
};

/// The ckptsimd campaign scheduler: accepts parsed request lines, runs
/// sweep campaigns on a worker pool, and streams response lines back
/// through per-connection sinks.  Transport-agnostic — the TCP daemon and
/// the --once stdin mode both drive this same object, as do the in-process
/// tests and the throughput bench.
///
/// Scheduling: the unit of work is one replication (the driver's guarded
/// attempt around run_replication), not one campaign, so concurrent
/// campaigns share the pool fairly instead of convoying: workers always
/// pick from the highest-priority campaign with ready work and round-robin
/// among equals (least recently served first).  Each point finalizes —
/// aggregation in replication-index order, cache insert, streamed "point"
/// line — the moment its last replication completes, exactly mirroring
/// sweep()'s per-point countdown, so results are bit-identical to the CLI's
/// sweep for the same request (and therefore to the cache entries a CLI
/// --journal run would have produced).
///
/// Adaptive campaigns (spec.rel_precision > 0) keep each point's rounds in
/// the driver's PointRounds: when a round completes, the stopper either
/// stops the point or schedules the next batch, exactly as in
/// ckptsim::replicate.  No cross-point barrier is needed, so adaptive
/// campaigns interleave with fixed ones on the same pool and still
/// reproduce an adaptive sweep's replication counts bit-identically.
///
/// Failure semantics differ from sweep() deliberately: a replication
/// failure under the fail/retry policies fails *that point* (an "error"
/// line with the point's context) and the campaign continues — a service
/// should not tear down a 20-point campaign for one bad point.  Skip-mode
/// accounting matches sweep() exactly.
///
/// Cancellation reuses the cooperative flag pattern of RunSpec::cancel:
/// a "cancel" request raises the campaign's flag, queued tasks are
/// dropped, in-flight replications finish, then one "cancelled" line is
/// emitted.  Points finalized before the cancel stay cached.
class CampaignServer {
 public:
  /// One response line (no trailing newline).  Called from connection and
  /// worker threads; per-campaign emission is serialized and FIFO, so a
  /// sink never sees "done" before the campaign's last "point".
  using Sink = std::function<void(const std::string&)>;

  explicit CampaignServer(ServerConfig config);
  ~CampaignServer();  // stop()

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Handle one request line from a client.  Immediate responses (pong,
  /// stats, errors, rejections, cache-only campaigns) are emitted on the
  /// caller's thread; streamed campaign responses arrive on worker threads
  /// through the same sink.  Never throws on bad input — malformed lines
  /// produce "error" responses.
  void handle_line(std::string_view line, const Sink& sink);

  /// Block until no campaign is queued or running (tests, --once mode).
  void drain();

  /// Graceful drain (SIGTERM): stop handing tasks to workers, reject new
  /// campaigns with an explicit "draining" response, and make in-flight
  /// replications park themselves at their next snapshot boundary (the
  /// snapshot is written, then the replication unwinds).  Campaigns caught
  /// mid-flight stay pending in the ledger, so a restarted daemon
  /// re-admits them and resumes bit-identically.  Idempotent.
  void begin_drain();

  /// True once begin_drain() was called and no replication is in flight
  /// and no response stream is mid-flush — the daemon can exit.
  [[nodiscard]] bool drained();

  /// Replay the ledger's pending campaigns through the normal request
  /// path (their original clients are gone; `sink` receives the recovered
  /// streams).  A line this build no longer parses gets its error and is
  /// retired, so it is not replayed on every start; a line turned away (a
  /// full queue) stays pending.  Returns the number of campaigns admitted.
  /// Call once at startup, before serving.
  std::size_t readmit_pending(const Sink& sink);

  /// Cancel everything and join the workers.  Idempotent.
  void stop();

  /// True once a "shutdown" request was received; the transport layer polls
  /// this to exit its accept loop.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// Resolved worker-pool width.
  [[nodiscard]] std::size_t workers() const noexcept { return threads_.size(); }

  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }

  /// The registry service counters are reported into (external or owned).
  [[nodiscard]] obs::Metrics& metrics() noexcept { return *metrics_; }

 private:
  /// One replication of one point of one campaign.
  struct Task {
    std::size_t point = 0;
    std::size_t rep = 0;
  };

  /// Mutable per-point state while a campaign runs.  `params` and `fp` are
  /// written once at admission (under mu_) and read-only afterwards;
  /// everything else is guarded by mu_.
  struct PointState {
    double x = 0.0;
    Parameters params;
    std::uint64_t fingerprint = 0;
    PointRounds<ReplicationResult> reps;  ///< outcomes, rounds, stop decision
    bool finalized = false;
  };

  struct Campaign {
    std::string id;
    int priority = 0;
    Request req;  ///< immutable after admission
    Sink sink;
    std::optional<stats::SequentialStopper> stopper;  ///< set when adaptive
    std::vector<PointState> points;
    std::deque<Task> ready;      ///< tasks awaiting a worker
    std::size_t inflight = 0;    ///< tasks running right now
    std::size_t unfinalized = 0; ///< points not yet finalized
    std::size_t cached = 0;      ///< points restored from the cache
    std::size_t failed = 0;      ///< points failed under fail/retry policy
    std::atomic<bool> cancelled{false};
    bool retired = false;           ///< terminal line emitted, off the list
    std::uint64_t last_served = 0;  ///< round-robin recency stamp
    // Ordered response queue: appended under mu_, drained FIFO by a single
    // flusher at a time, so lines reach the sink in generation order even
    // though several workers finalize points concurrently.
    std::deque<std::string> outbox;
    bool flushing = false;
  };
  using CampaignPtr = std::shared_ptr<Campaign>;

  /// False when the campaign was turned away (error, draining, full queue).
  bool submit_sweep(Request&& req, std::string_view raw_line, const Sink& sink);
  /// Admission of a synchronous (non-campaign) request: false after
  /// answering a stopping or draining server's error/"draining" line.
  bool admit_synchronous(const Request& req, const Sink& sink);
  /// Run one interference request synchronously on the caller's thread and
  /// stream accepted / job / platform / done lines through `sink`.  The run
  /// is not a campaign: no cache entry, no ledger record, no cancel handle
  /// (its worker pool is the request's own spec.exec, not the server's).
  void run_interference_request(Request&& req, const Sink& sink);
  /// Run one optimizer search synchronously on the caller's thread and
  /// stream accepted / candidate / optimum / done lines through `sink`.
  /// Same non-campaign contract as run_interference_request.
  void run_optimize_request(Request&& req, const Sink& sink);
  void cancel_campaign(const std::string& id, const Sink& sink);
  void worker_loop(std::size_t worker);
  /// Pop the next task under the fairness policy; false when nothing is
  /// ready.  Caller holds mu_.
  bool pick_task(CampaignPtr* campaign, Task* task);
  /// Record a completed task, finalizing its point / campaign as needed.
  /// Caller holds mu_; emissions go to the campaign outbox.
  void on_task_done(const CampaignPtr& c, const Task& t,
                    detail::Outcome<ReplicationResult>&& outcome);
  /// Aggregate + cache + emit one completed point.  Caller holds mu_.
  void finalize_point(const CampaignPtr& c, std::size_t point);
  /// Schedule the next `batch` replications of `point`.  Caller holds mu_.
  void schedule_round(const CampaignPtr& c, std::size_t point, std::size_t batch);
  /// Emit "done"/"cancelled" and retire the campaign once nothing is left.
  /// Caller holds mu_.
  void maybe_retire(const CampaignPtr& c);
  /// Drain `c`'s outbox through its sink without holding mu_.
  void flush_outbox(const CampaignPtr& c);

  ServerConfig config_;
  std::unique_ptr<obs::Metrics> owned_metrics_;
  obs::Metrics* metrics_ = nullptr;
  ResultCache cache_;
  std::unique_ptr<CampaignLedger> ledger_;  ///< null without a ledger path
  /// Raised by begin_drain()/stop(); in-flight replications observe it
  /// through SnapshotSpec::stop and park at their next snapshot boundary.
  std::atomic<bool> drain_stop_{false};

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: ready task or stopping
  std::condition_variable idle_cv_;  ///< drain(): campaign list emptied
  std::list<CampaignPtr> campaigns_;
  std::size_t flushers_ = 0;  ///< outbox drains in progress (any campaign)
  std::uint64_t serve_seq_ = 0;
  bool stopping_ = false;
  bool draining_ = false;  ///< guarded by mu_
  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> threads_;
};

}  // namespace ckptsim::svc
