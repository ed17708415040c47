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
#include <utility>
#include <vector>

#include "src/core/journal.h"
#include "src/core/runner.h"
#include "src/core/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/svc/ledger.h"
#include "src/svc/protocol.h"

namespace ckptsim::svc {

/// Configuration of a CampaignServer.
struct ServerConfig {
  /// Worker threads simulating replications; 0 = auto (CKPTSIM_JOBS, then
  /// hardware concurrency), exactly like RunSpec's ExecSpec.
  std::size_t workers = 0;
  /// Admission control: campaigns and ops concurrently queued or running.
  /// A sweep or op arriving while this many are in flight gets a
  /// "rejected" backpressure response instead of unbounded queue growth.
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
/// sweep campaigns and ops on a worker pool, and streams response lines
/// back through per-connection sinks.  Transport-agnostic — the TCP daemon
/// and the --once stdin mode both drive this same object, as do the
/// in-process tests and the throughput bench.
///
/// The result cache is a SweepJournal, the store every sweep driver uses:
/// keyed by `journal_fingerprint`, so two requests collide exactly when
/// they would simulate identical work and a hit returns the bit-identical
/// RunResult of the cold run.  With a path it is the fsync'd journal file,
/// interchangeable with a CLI `--journal` (a sweep journaled on the command
/// line is a warm cache for the service, and vice versa), and a restarted
/// daemon reloads every completed point.  The optimize op searches through
/// it as `ckptsim_cli --optimize --journal` does, so each candidate is a
/// cached point (label "optimize", x = the interval) and a resubmit or a
/// restart serves it without simulating.
///
/// Scheduling: the server owns one core::WorkerPool and gives every
/// campaign a lane at its priority (ops: 0).  A sweep is one
/// ckptsim::ReplicationRun on that lane, built on the requesting thread, so
/// its first round is queued when handle_line returns; an op is its library
/// call (run_interference, optimize), whose runs target the same lane.  The
/// unit of work is one replication, so concurrent campaigns share the pool
/// fairly instead of convoying: workers always take from the
/// highest-priority lane with queued work and round-robin among equals
/// (least recently served first).  Each point finalizes — aggregation in
/// replication-index order, cache insert, streamed "point" line — on the
/// worker that lands its last round, and each point opens its own rounds,
/// so adaptive campaigns interleave with fixed ones and results are
/// bit-identical to the CLI's sweep for the same request (and therefore to
/// the cache entries a CLI --journal run would have produced).  With a
/// persistent cache the insert, an fsync, is the store thread's: it appends
/// every point finished meanwhile with one fsync and only then queues their
/// "point" lines, so no worker waits on the disk and no line names an entry
/// a crash could lose.  A memory-only cache is filled by the worker that
/// finished the point.
///
/// A campaign ends once, by one rule: "done" when it finished, "cancelled"
/// after a client cancel (whose late outcomes are discarded), "draining"
/// for an op a drain stopped and nothing for a drained sweep.  The thread
/// that ends a sweep's last point applies it there, so "done" follows the
/// last "point" line before that worker takes other work, and campaigns
/// end in the order the pool finishes them.  Every admitted campaign also
/// has one driver thread, which waits on the campaign's run or op and
/// applies the rule when nothing did: to every op, and to a sweep a
/// cancel, a drain or stop() cut short.  A sweep served wholly from the
/// cache ends on the requesting thread.  So no request blocks its
/// connection.
///
/// Failure semantics differ from sweep() deliberately: a replication
/// failure under the fail/retry policies fails *that point* (an "error"
/// line with the point's context) and the campaign continues — a service
/// should not tear down a 20-point campaign for one bad point.  Skip-mode
/// accounting matches sweep() exactly.  Every campaign reports into the
/// server's metrics registry.  The interference op keeps no cache entry,
/// and no op has a ledger record.
class CampaignServer {
 public:
  /// One response line (no trailing newline).  Called from connection,
  /// worker and driver threads; per-campaign emission is serialized and
  /// FIFO, so a sink never sees "done" before the campaign's last "point".
  using Sink = std::function<void(const std::string&)>;

  explicit CampaignServer(ServerConfig config);
  ~CampaignServer();  // stop()

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Handle one request line from a client.  Immediate responses (pong,
  /// stats, errors, rejections, cancel acks, accepted lines) are emitted on
  /// the caller's thread; streamed campaign responses arrive on worker and
  /// driver threads through the same sink.  Never throws on bad input —
  /// malformed lines produce "error" responses.  A failed ledger append
  /// throws, after the campaign is unlisted.
  void handle_line(std::string_view line, const Sink& sink);

  /// Block until no campaign is queued or running (tests, --once mode).
  void drain();

  /// Graceful drain (SIGTERM): raise every campaign's flag, so nothing
  /// queued starts and no new round opens; reject new requests with an
  /// explicit "draining" response; and make in-flight replications park
  /// themselves at their next snapshot boundary (the snapshot is written,
  /// then the replication unwinds).  Sweeps caught mid-flight end without a
  /// terminal line and stay pending in the ledger, so a restarted daemon
  /// re-admits them and resumes bit-identically; an op ends with
  /// "draining".  Idempotent.
  void begin_drain();

  /// True once begin_drain() was called, every campaign has ended and no
  /// response stream is mid-flush — the daemon can exit.
  [[nodiscard]] bool drained();

  /// Replay the ledger's pending campaigns through the normal request
  /// path (their original clients are gone; `sink` receives the recovered
  /// streams).  A line this build no longer parses gets its error and is
  /// retired, so it is not replayed on every start; a line turned away (a
  /// full queue) stays pending.  Returns the number of campaigns admitted.
  /// Call once at startup, before serving.
  std::size_t readmit_pending(const Sink& sink);

  /// Cancel everything, wait for every campaign to end and join its driver.
  /// No line is emitted and nothing is retired.  Idempotent.
  void stop();

  /// True once a "shutdown" request was received; the transport layer polls
  /// this to exit its accept loop.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// Resolved worker-pool width.
  [[nodiscard]] std::size_t workers() const noexcept { return pool_.size(); }

  /// The result cache: the journal of every completed point.
  [[nodiscard]] const SweepJournal& cache() const noexcept { return cache_; }

  /// The registry service counters are reported into (external or owned).
  [[nodiscard]] obs::Metrics& metrics() noexcept { return *metrics_; }

 private:
  /// One sweep point, fixed at admission.
  struct Point {
    double x = 0.0;
    Parameters params;
    std::uint64_t fingerprint = 0;
  };

  /// An admitted sweep or op.  Its driver thread owns it until the
  /// campaign ends.  `req` and the points are fixed once its run starts;
  /// fields marked (mu_) are guarded by mu_ from then on.
  struct Campaign : std::enable_shared_from_this<Campaign> {
    Campaign(WorkerPool& pool, obs::Metrics* metrics, Request&& r, Sink s)
        : req(std::move(r)), sink(std::move(s)), lane(pool, req.priority) {
      req.spec.exec.lane = &lane;
      req.spec.cancel = &stop;
      req.spec.metrics = metrics;
    }
    /// spec.exec.lane and spec.cancel point at the two below, and
    /// spec.metrics at the server's registry.
    Request req;
    Sink sink;
    WorkerPool::Lane lane;           ///< the campaign's replications
    std::atomic<bool> stop{false};   ///< raised by a cancel, a drain or stop()
    std::vector<Point> points;       ///< a sweep's points
    std::vector<std::size_t> pending;  ///< the points its run simulates
    std::size_t cached = 0;            ///< points restored from the cache
    std::size_t unfinished = 0;  ///< pending points not yet published or failed (mu_)
    std::size_t failed = 0;      ///< points failed under fail/retry policy (mu_)
    std::size_t storing = 0;     ///< points awaiting the store thread (mu_)
    bool cancelled = false;      ///< by a client (mu_)
    bool ended = false;          ///< its ending rule ran or runs (mu_)
    // Ordered response queue: appended under mu_, drained FIFO by a single
    // flusher at a time, so lines reach the sink in generation order even
    // though several threads emit concurrently.
    std::deque<std::string> outbox;  ///< (mu_)
    bool flushing = false;           ///< (mu_)
    std::thread driver;              ///< (mu_) handed to ended_ when it ends
    /// A sweep's replications; declared last, so it goes before the lane
    /// and the state its tasks read.
    std::optional<ReplicationRun<ReplicationResult>> run;
  };
  using CampaignPtr = std::shared_ptr<Campaign>;

  /// A finished point awaiting its cache insert.
  struct PendingStore {
    CampaignPtr campaign;
    std::size_t point = 0;
    RunResult result;
  };

  /// Admission of a sweep or an op, in order: a stopping server (error), a
  /// draining one ("draining"), an id already listed (error), a full queue
  /// ("rejected").  False after answering `sink`, with `lock` released;
  /// true with `lock` on mu_ still held.
  bool admit(const std::string& id, const Sink& sink, std::unique_lock<std::mutex>& lock);
  /// Admit a sweep or an op, queue its accepted line and start its driver.
  /// False when the campaign was turned away (error, draining, full queue).
  bool submit(Request&& req, std::string_view raw_line, const Sink& sink);
  /// Restore a sweep's cached points, queue its accepted and cached lines,
  /// and build the run of the rest, which queues their first round.
  void start_sweep(Campaign& c);
  /// The driver: wait on the campaign's run or op, then end it unless a
  /// worker or the store thread already did.
  void drive(const CampaignPtr& c);
  /// The one ending rule, once per campaign: queue its terminal line (none
  /// after stop() or for a drained sweep) and unlist it.  `points` is the
  /// count a "done" line reports; `failure` and `interrupted` say how the
  /// run or op ended.  A sweep with a terminal line leaves the ledger
  /// first, with mu_ released while the id is still listed, so a campaign
  /// that reuses the id is never retired by this one.  Caller holds `lock`
  /// and flushes the outbox.  The thread that ends a sweep's last point
  /// calls it for a finished sweep; the driver, for the rest.
  void end_campaign(Campaign& c, std::unique_lock<std::mutex>& lock, std::size_t points,
                    const std::string& failure = {}, bool interrupted = false);
  /// Take `c` off the active list.  Caller holds mu_.
  void unlist(const Campaign& c);
  /// An op's library call, streaming its lines; returns the count its
  /// "done" line reports.
  std::size_t run_op(Campaign& c);
  void cancel_campaign(const std::string& id, const Sink& sink);
  /// A sweep point's last round landed and aggregated to `result`: cache
  /// and publish it, through the store thread when the cache is persistent.
  void finish_point(Campaign& c, std::size_t point, RunResult result);
  /// The store thread of a persistent cache: insert the queued points in
  /// one batch, then publish them, until stop() closes the queue.
  void store_loop();
  /// Queue the line of a point already in the cache.  Caller holds mu_.
  void publish_point(Campaign& c, std::size_t point, const RunResult& result);
  /// Queue `line` on `c`'s stream and flush it, unless a client cancel or
  /// stop() discards the campaign's late lines.
  void emit(Campaign& c, std::string line);
  /// Send `c`'s queued lines through its sink, mu_ released while it
  /// sends, unless another thread is already sending them: one flusher per
  /// campaign keeps its lines in order.  Caller holds `lock`, and holds it
  /// again on return.
  void flush(Campaign& c, std::unique_lock<std::mutex>& lock);

  ServerConfig config_;
  std::unique_ptr<obs::Metrics> owned_metrics_;
  obs::Metrics* metrics_ = nullptr;
  SweepJournal cache_;
  std::unique_ptr<CampaignLedger> ledger_;  ///< null without a ledger path
  /// Raised by begin_drain()/stop(); in-flight replications observe it
  /// through SnapshotSpec::stop and park at their next snapshot boundary.
  std::atomic<bool> drain_stop_{false};

  std::mutex mu_;
  /// drain(), stop() and drivers: a campaign ended, or a point was stored.
  std::condition_variable idle_cv_;
  /// Declared after what its tasks lock and before what holds campaigns,
  /// so it is joined after the campaigns go and before the lock does.
  WorkerPool pool_;
  std::list<CampaignPtr> campaigns_;  ///< admitted and not yet ended
  std::size_t drivers_ = 0;           ///< driver threads not yet in ended_
  std::vector<std::thread> ended_;    ///< driver threads done sending, to join
  std::condition_variable store_cv_;  ///< store thread: points queued or closing
  std::vector<PendingStore> stores_;  ///< finished points awaiting their insert
  bool stores_closed_ = false;        ///< set by stop() once every campaign ended
  std::size_t flushers_ = 0;  ///< outbox drains in progress (any campaign)
  bool stopping_ = false;
  bool draining_ = false;  ///< guarded by mu_
  std::atomic<bool> shutdown_{false};
  std::thread store_thread_;  ///< only with a persistent cache
};

}  // namespace ckptsim::svc
