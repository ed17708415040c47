#include "src/svc/server.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/core/fault.h"
#include "src/core/journal.h"
#include "src/core/thread_pool.h"

namespace ckptsim::svc {

namespace {

bool blank(std::string_view line) {
  return line.find_first_not_of(" \t\r\n") == std::string_view::npos;
}

/// Worker i owns metrics shard i, so the pool is never wider than an
/// external registry (mirrors the drivers' clamp).
std::size_t pool_width(const ServerConfig& config) {
  const std::size_t n = ExecSpec{.jobs = config.workers}.resolve();
  return config.metrics != nullptr ? std::min(n, config.metrics->workers()) : n;
}

}  // namespace

CampaignServer::CampaignServer(ServerConfig config)
    : config_(std::move(config)), cache_(config_.cache_path), pool_(pool_width(config_)) {
  if (!config_.ledger_path.empty()) {
    ledger_ = std::make_unique<CampaignLedger>(config_.ledger_path);
  }
  if (config_.snapshot_every_events > 0) {
    if (config_.snapshot_dir.empty()) {
      throw SimError(ErrorCode::kInvalidParameter,
                     "CampaignServer: snapshot_every_events needs snapshot_dir");
    }
    if (::mkdir(config_.snapshot_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      throw SimError(ErrorCode::kIoError, "CampaignServer: cannot create snapshot dir '" +
                                              config_.snapshot_dir +
                                              "': " + std::strerror(errno));
    }
  }
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::Metrics>(pool_.size());
    metrics_ = owned_metrics_.get();
  }
  if (cache_.persistent()) store_thread_ = std::thread([this] { store_loop(); });
}

CampaignServer::~CampaignServer() { stop(); }

void CampaignServer::handle_line(std::string_view line, const Sink& sink) {
  if (blank(line)) return;
  obs::ServiceCounters& svcc = metrics_->service();
  svcc.requests.fetch_add(1, std::memory_order_relaxed);
  Request req;
  std::string error;
  if (!parse_request(line, &req, &error)) {
    svcc.errors.fetch_add(1, std::memory_order_relaxed);
    sink(response_error(req.id, error));
    return;
  }
  switch (req.op) {
    case Request::Op::kPing:
      sink(response_pong());
      return;
    case Request::Op::kStats:
      sink(response_stats(svcc.snapshot()));
      return;
    case Request::Op::kShutdown:
      shutdown_.store(true, std::memory_order_relaxed);
      sink(response_bye());
      return;
    case Request::Op::kCancel:
      cancel_campaign(req.id, sink);
      return;
    case Request::Op::kSweep:
      submit_sweep(std::move(req), line, sink);
      return;
    case Request::Op::kInterference:
    case Request::Op::kOptimize:
      run_op(std::move(req), sink);
      return;
  }
}

bool CampaignServer::admit(const std::string& id, const Sink& sink,
                           std::unique_lock<std::mutex>& lock) {
  obs::ServiceCounters& svcc = metrics_->service();
  std::atomic<std::uint64_t>* counter = &svcc.errors;
  std::string refusal;
  if (stopping_) {
    refusal = response_error(id, "server is stopping");
  } else if (draining_) {
    // Checked before every other admission rule: a draining server must
    // say so explicitly — a generic queue-full rejection would invite the
    // client to retry against a process that is about to exit.
    counter = &svcc.rejected;
    refusal = response_draining(id);
  } else if (std::any_of(campaigns_.begin(), campaigns_.end(),
                         [&id](const CampaignPtr& c) { return c->id == id; })) {
    refusal = response_error(id, "campaign id '" + id + "' is already active");
  } else if (campaigns_.size() >= config_.max_queue_depth) {
    // Admission control, checked before any cache work: when the queue is
    // full the cheapest possible answer — a rejection line — is the whole
    // point of backpressure.
    counter = &svcc.rejected;
    refusal = response_rejected(id, campaigns_.size(), config_.max_queue_depth);
  } else {
    return true;
  }
  lock.unlock();
  counter->fetch_add(1, std::memory_order_relaxed);
  sink(refusal);
  return false;
}

void CampaignServer::run_op(Request&& req, const Sink& sink) {
  obs::ServiceCounters& svcc = metrics_->service();
  const auto c = std::make_shared<Campaign>(pool_, /*priority=*/0);
  c->id = req.id;
  c->op = true;
  c->inflight = 1;  // until the op ends: drained() waits for it
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!admit(c->id, sink, lock)) return;
    campaigns_.push_back(c);
    svcc.queue_depth.store(static_cast<std::int64_t>(campaigns_.size()),
                           std::memory_order_relaxed);
  }
  svcc.accepted.fetch_add(1, std::memory_order_relaxed);
  req.spec.exec.lane = &c->lane;
  req.spec.cancel = &c->cancelled;
  const bool interference = req.op == Request::Op::kInterference;
  std::string failure;
  try {
    if (interference) {
      sink(response_accepted(req.id, req.mix.jobs.size(), /*cached=*/0));
      const platform::InterferenceResult result = platform::run_interference(req.mix, req.spec);
      for (const platform::InterferenceJobResult& job : result.jobs) {
        sink(response_job(req.id, job));
        svcc.points_completed.fetch_add(1, std::memory_order_relaxed);
      }
      sink(response_platform(req.id, req.mix, result));
      svcc.replications_run.fetch_add(result.replications * req.mix.jobs.size(),
                                      std::memory_order_relaxed);
      sink(response_done(req.id, req.mix.jobs.size(), /*cached=*/0, /*failed=*/0));
    } else {
      // Candidate count is search-dependent (memo hits shrink it), so the
      // accepted line reports the planned upper bound per (policy, procs)
      // pair: the coarse grid plus the golden-section evaluations.
      const std::size_t combos =
          std::max<std::size_t>(1, req.opt.policies.size()) *
          std::max<std::size_t>(1, req.opt.processor_candidates.size());
      const std::size_t planned =
          combos * (req.opt.grid + (req.opt.refine_iters > 0 ? req.opt.refine_iters + 1 : 0));
      sink(response_accepted(req.id, planned, /*cached=*/0));
      std::size_t evaluated = 0;
      const OptimizeObserver observer = [&](const OptimizeCandidate& candidate) {
        sink(response_candidate(req.id, candidate));
        ++evaluated;
        svcc.points_completed.fetch_add(1, std::memory_order_relaxed);
      };
      const OptimumPolicy best =
          optimize(req.params, req.spec, req.opt, /*journal=*/nullptr, observer);
      sink(response_optimum(req.id, best));
      sink(response_done(req.id, evaluated, /*cached=*/0, /*failed=*/0));
    }
  } catch (const std::exception& e) {
    failure = std::string(interference ? "interference" : "optimize") + " run failed: " + e.what();
  }
  std::unique_lock<std::mutex> lock(mu_);
  campaigns_.remove(c);
  svcc.queue_depth.store(static_cast<std::int64_t>(campaigns_.size()),
                         std::memory_order_relaxed);
  idle_cv_.notify_all();
  // A retired op was stopped: its sink is going away with the server.
  if (failure.empty() || c->retired) return;
  // A run stopped by its flag ends with why: a cancel or a drain.
  const bool stopped = c->cancelled.load(std::memory_order_relaxed);
  const std::string last = !stopped  ? response_error(req.id, failure)
                           : draining_ ? response_draining(req.id)
                                       : response_cancelled(req.id);
  lock.unlock();
  if (!stopped) svcc.errors.fetch_add(1, std::memory_order_relaxed);
  sink(last);
}

bool CampaignServer::submit_sweep(Request&& req, std::string_view raw_line, const Sink& sink) {
  obs::ServiceCounters& svcc = metrics_->service();
  auto c = std::make_shared<Campaign>(pool_, req.priority);
  c->id = req.id;
  c->sink = sink;
  if (req.spec.sequential.enabled()) c->stopper.emplace(req.spec.sequential);
  c->req = std::move(req);
  const Request& r = c->req;

  std::unique_lock<std::mutex> lock(mu_);
  if (!admit(r.id, sink, lock)) return false;

  // Durable admission record, written before any replication runs: if the
  // process dies — SIGKILL included — from here on, a restart finds the
  // request line in the ledger and re-admits it.
  if (ledger_ != nullptr) ledger_->admit(r.id, std::string(raw_line));

  // Materialize every point and restore what the cache already holds.  The
  // fingerprint is exactly the sweep journal's, so a CLI --journal file
  // warms this lookup and vice versa.
  c->points.resize(r.values.size());
  std::vector<std::pair<std::size_t, RunResult>> restored;
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    PointState& ps = c->points[i];
    ps.reps = PointRounds<ReplicationResult>(c->stopper ? &*c->stopper : nullptr);
    ps.x = r.values[i];
    ps.params = apply_axis(r.axis, r.params, ps.x);
    ps.fingerprint = journal_fingerprint(r.label, ps.params, r.spec, r.engine, ps.x);
    RunResult hit;
    if (cache_.lookup(ps.fingerprint, &hit)) {
      ps.finalized = true;
      ++c->cached;
      svcc.cache_hits.fetch_add(1, std::memory_order_relaxed);
      svcc.points_completed.fetch_add(1, std::memory_order_relaxed);
      restored.emplace_back(i, std::move(hit));
    } else {
      svcc.cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  c->unfinalized = c->points.size() - c->cached;
  svcc.accepted.fetch_add(1, std::memory_order_relaxed);
  c->outbox.push_back(response_accepted(c->id, c->points.size(), c->cached));
  for (const auto& [i, hit] : restored) {
    c->outbox.push_back(response_point(c->id, c->points[i].x, /*cached=*/true, hit));
  }

  if (c->unfinalized == 0) {
    // Fully served from the cache: reply on this thread, never queue.
    if (ledger_ != nullptr) ledger_->retire(c->id);
    c->outbox.push_back(response_done(c->id, c->points.size(), c->cached, 0));
    std::deque<std::string> lines;
    lines.swap(c->outbox);
    lock.unlock();
    for (const std::string& out : lines) sink(out);
    return true;
  }

  for (std::size_t i = 0; i < c->points.size(); ++i) {
    if (c->points[i].finalized) continue;
    schedule_round(c, i, c->stopper ? c->stopper->initial_round() : r.spec.replications);
  }
  campaigns_.push_back(c);
  svcc.queue_depth.store(static_cast<std::int64_t>(campaigns_.size()),
                         std::memory_order_relaxed);
  claim_flush(*c);  // the accepted line is queued, and nobody flushes yet
  lock.unlock();
  flush_outbox(c);
  return true;
}

void CampaignServer::cancel_campaign(const std::string& id, const Sink& sink) {
  obs::ServiceCounters& svcc = metrics_->service();
  std::unique_lock<std::mutex> lock(mu_);
  CampaignPtr c;
  for (const CampaignPtr& existing : campaigns_) {
    if (existing->id == id) {
      c = existing;
      break;
    }
  }
  if (c == nullptr) {
    // Unknown id and already-completed campaign land here alike (retired
    // campaigns leave campaigns_); both must answer with a structured,
    // machine-readable error — not a silent drop or a bare message.
    lock.unlock();
    svcc.errors.fetch_add(1, std::memory_order_relaxed);
    sink(response_error_code(id, "unknown_campaign",
                             "unknown or already-completed campaign '" + id + "'"));
    return;
  }
  svcc.cancelled.fetch_add(1, std::memory_order_relaxed);
  // Cooperative, like RunSpec::cancel: raise the flag, drop queued work,
  // let in-flight replications finish.  An op's own thread ends its stream.
  c->cancelled.store(true, std::memory_order_relaxed);
  const std::size_t dropped = c->lane.drop();
  if (!c->op) {
    c->inflight -= dropped;
    maybe_retire(c);
  }
  const bool flush = claim_flush(*c);
  lock.unlock();
  // Immediate ack to the canceller; the campaign's own stream terminates
  // with its own "cancelled" line once in-flight work drains.
  sink(response_cancelled(id));
  if (flush) flush_outbox(c);
}

void CampaignServer::run_task(const CampaignPtr& c, std::size_t point, std::size_t rep,
                              std::size_t worker) {
  detail::Outcome<ReplicationResult> outcome;
  if (!c->cancelled.load(std::memory_order_relaxed)) {
    const Request& r = c->req;
    const PointState& ps = c->points[point];
    // Event-granular crash-resume, keyed by the point's cache fingerprint
    // (unique per simulated work, filename-safe for any campaign id) plus
    // the replication index; drain_stop_ parks the replication at its
    // next snapshot boundary when the daemon drains.
    char fp_hex[17];
    std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                  static_cast<unsigned long long>(ps.fingerprint));
    SnapshotSpec snap =
        replication_snapshot(ps.params, r.spec, r.engine, rep, config_.snapshot_every_events,
                             config_.snapshot_dir + "/" + fp_hex + "-");
    snap.stop = &drain_stop_;
    const SnapshotSpec* const snap_ptr = snap.enabled() ? &snap : nullptr;
    const obs::WorkerTimer timer(metrics_, worker);
    obs::ReplicationProbe probe;
    outcome = detail::guard_attempts(
        r.spec.seed, rep, r.spec.on_failure, &probe, r.spec.fault_injection, snap_ptr,
        [&](std::uint64_t seed, obs::ReplicationProbe* attempt_probe) {
          return run_replication(ps.params, r.engine, seed, r.spec.transient, r.spec.horizon,
                                 attempt_probe, r.spec.watchdog.max_events, {}, snap_ptr);
        });
    metrics_->service().replications_run.fetch_add(1, std::memory_order_relaxed);
    if (outcome.ok) metrics_->shard(worker).absorb(probe);
  }
  std::unique_lock<std::mutex> lock(mu_);
  on_task_done(c, point, rep, std::move(outcome));
  const bool flush = claim_flush(*c);
  lock.unlock();
  if (flush) flush_outbox(c);
}

void CampaignServer::schedule_round(const CampaignPtr& c, std::size_t point, std::size_t batch) {
  PointRounds<ReplicationResult>& reps = c->points[point].reps;
  for (std::size_t rep = reps.open(batch); rep < reps.scheduled(); ++rep) {
    // The task owns the campaign, and with it the lane it is queued on.
    c->lane.submit([this, c, point, rep](std::size_t worker) { run_task(c, point, rep, worker); });
    ++c->inflight;
  }
}

void CampaignServer::on_task_done(const CampaignPtr& c, std::size_t point, std::size_t rep,
                                  detail::Outcome<ReplicationResult>&& outcome) {
  --c->inflight;
  if (!outcome.ok && outcome.failure.code == ErrorCode::kInterrupted) {
    // Drain stop: the replication parked itself in its snapshot.  Nothing
    // is recorded — the campaign stays pending in the ledger, and the
    // restarted daemon resumes this replication from the snapshot,
    // bit-identical to never having stopped.
    idle_cv_.notify_all();
    return;
  }
  if (c->cancelled.load(std::memory_order_relaxed)) {
    // The outcome is discarded: the point can no longer finalize, and the
    // campaign retires once the last in-flight task lands here.
    maybe_retire(c);
    return;
  }
  PointRounds<ReplicationResult>& reps = c->points[point].reps;
  if (!reps.land(rep, std::move(outcome))) return;
  // Round complete: the stop/continue decision of ckptsim::replicate.
  if (reps.fatal(c->req.spec.on_failure) == nullptr) {
    const std::size_t next = reps.next_round(
        [](const ReplicationResult& r) { return r.useful_fraction; },
        c->req.spec.confidence_level);
    if (next != 0) {
      // A draining server opens no round: the point stays unfinished, and
      // pending in the ledger, for the restarted daemon.
      if (!draining_) schedule_round(c, point, next);
      return;
    }
  }
  finalize_point(c, point);
  maybe_retire(c);
}

void CampaignServer::finalize_point(const CampaignPtr& c, std::size_t point) {
  PointState& ps = c->points[point];
  const Request& r = c->req;
  ps.finalized = true;
  if (const auto* f = ps.reps.fatal(r.spec.on_failure)) {
    // Unlike sweep(), one bad point fails alone: its error line carries the
    // sweep-style context and the campaign's other points proceed.
    --c->unfinalized;
    ++c->failed;
    metrics_->service().errors.fetch_add(1, std::memory_order_relaxed);
    c->outbox.push_back(response_error(
        c->id, "point x = " + std::to_string(ps.x) + ": " + describe_failure(f->failure)));
    return;
  }
  // Insert before the "point" line is queued: by the time a client reads
  // the response, the entry is fsync'd and survives a daemon restart.  A
  // persistent insert waits on the disk, so the store thread makes it; the
  // point counts as in flight until then, so a cancel or a drain waits for
  // its line.
  PendingStore s{c, point, aggregate_point(ps.reps, r.spec.confidence_level, ps.params)};
  ++c->inflight;
  if (!cache_.persistent()) {
    cache_.insert(ps.fingerprint, ps.x, s.result);
    publish_point(s);
    return;
  }
  stores_.push_back(std::move(s));
  store_cv_.notify_one();
}

void CampaignServer::store_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    store_cv_.wait(lock, [this] { return !stores_.empty() || stores_closed_; });
    if (stores_.empty()) return;
    std::vector<PendingStore> batch;
    batch.swap(stores_);
    lock.unlock();
    std::vector<SweepJournal::Entry> entries;
    entries.reserve(batch.size());
    for (const PendingStore& s : batch) {
      const PointState& ps = s.campaign->points[s.point];
      entries.push_back(SweepJournal::Entry{ps.fingerprint, ps.x, s.result});
    }
    cache_.insert_all(entries);
    lock.lock();
    std::vector<CampaignPtr> flush;
    for (const PendingStore& s : batch) {
      publish_point(s);
      if (claim_flush(*s.campaign)) flush.push_back(s.campaign);
    }
    lock.unlock();
    for (const CampaignPtr& c : flush) flush_outbox(c);
    lock.lock();
  }
}

void CampaignServer::publish_point(const PendingStore& s) {
  Campaign& c = *s.campaign;
  const PointState& ps = c.points[s.point];
  --c.inflight;
  --c.unfinalized;
  metrics_->record_point(
      obs::PointRecord{c.req.label, ps.x, s.result.replications, s.result.rounds});
  metrics_->service().points_completed.fetch_add(1, std::memory_order_relaxed);
  // stop() retires every campaign: its sink is going away with the server.
  if (!c.retired) c.outbox.push_back(response_point(c.id, ps.x, /*cached=*/false, s.result));
  maybe_retire(s.campaign);
}

void CampaignServer::maybe_retire(const CampaignPtr& c) {
  if (c->retired) return;
  if (c->cancelled.load(std::memory_order_relaxed)) {
    if (c->inflight != 0) return;
    c->outbox.push_back(response_cancelled(c->id));
  } else {
    if (c->unfinalized != 0 || c->inflight != 0) return;
    c->outbox.push_back(response_done(c->id, c->points.size(), c->cached, c->failed));
  }
  c->retired = true;
  // The campaign reached its terminal line on its own (done, or a
  // client-requested cancel): retire it from the ledger.  Shutdown and
  // drain deliberately never get here, so their campaigns stay pending.
  if (ledger_ != nullptr) ledger_->retire(c->id);
  campaigns_.remove(c);
  metrics_->service().queue_depth.store(static_cast<std::int64_t>(campaigns_.size()),
                                        std::memory_order_relaxed);
  idle_cv_.notify_all();
}

bool CampaignServer::claim_flush(Campaign& c) {
  if (c.outbox.empty() || c.flushing) return false;
  c.flushing = true;
  ++flushers_;
  return true;
}

void CampaignServer::flush_outbox(const CampaignPtr& c) {
  for (;;) {
    std::deque<std::string> batch;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (c->outbox.empty()) {
        c->flushing = false;
        --flushers_;
        idle_cv_.notify_all();
        return;
      }
      batch.swap(c->outbox);
    }
    for (const std::string& line : batch) c->sink(line);
  }
}

void CampaignServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  // Wait for the response streams too: a retired campaign's last lines may
  // still be in a flusher's hands.
  idle_cv_.wait(lock, [this] { return campaigns_.empty() && flushers_ == 0; });
}

void CampaignServer::begin_drain() {
  // Raise the replication-level stop first: a worker that picks up its
  // campaign's snapshot hook after this sees the flag at the very next
  // boundary.
  drain_stop_.store(true, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mu_);
  if (draining_) return;
  draining_ = true;
  // Nothing queued starts: a sweep's dropped replications stay pending in
  // the ledger for the restarted daemon; an op ends with "draining".
  for (const CampaignPtr& c : campaigns_) {
    if (c->op) c->cancelled.store(true, std::memory_order_relaxed);
    const std::size_t dropped = c->lane.drop();
    if (!c->op) c->inflight -= dropped;
  }
}

bool CampaignServer::drained() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!draining_) return false;
  if (flushers_ != 0) return false;
  for (const CampaignPtr& c : campaigns_) {
    if (c->inflight != 0) return false;
  }
  return true;
}

std::size_t CampaignServer::readmit_pending(const Sink& sink) {
  if (ledger_ == nullptr) return 0;
  obs::ServiceCounters& svcc = metrics_->service();
  std::size_t admitted = 0;
  for (const auto& [id, line] : ledger_->pending()) {
    svcc.requests.fetch_add(1, std::memory_order_relaxed);
    Request req;
    std::string error;
    if (!parse_request(line, &req, &error)) {
      // A request this build rejects (a removed key, a stricter check)
      // would fail the same way on every start: report it once, retire it.
      svcc.errors.fetch_add(1, std::memory_order_relaxed);
      sink(response_error(id, error));
      ledger_->retire(id);
      continue;
    }
    if (submit_sweep(std::move(req), line, sink)) ++admitted;
  }
  return admitted;
}

void CampaignServer::stop() {
  // In-flight replications park at their next snapshot boundary (when
  // snapshots are on) instead of running to completion, so the wait is
  // prompt and their progress survives in the snapshot files.
  drain_stop_.store(true, std::memory_order_relaxed);
  std::list<CampaignPtr> listed;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (const CampaignPtr& c : campaigns_) {
      c->cancelled.store(true, std::memory_order_relaxed);
      c->retired = true;  // suppress terminal lines: the sinks are dying too
      const std::size_t dropped = c->lane.drop();
      if (!c->op) c->inflight -= dropped;
    }
    // The sockets are going away with us; drop the campaigns rather than
    // emitting into the void.  Running tasks own their campaign, so its
    // state stays valid until they land.
    listed.swap(campaigns_);
    metrics_->service().queue_depth.store(0, std::memory_order_relaxed);
  }
  // An op's lane is its own thread's to wait on.
  for (const CampaignPtr& c : listed) {
    if (!c->op) c->lane.wait();
  }
  // The lanes queue no more points: the store thread inserts what they
  // left (finished points stay cached) and exits.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stores_closed_ = true;
  }
  store_cv_.notify_all();
  if (store_thread_.joinable()) store_thread_.join();
  idle_cv_.notify_all();
}

}  // namespace ckptsim::svc
