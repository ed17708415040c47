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

/// The points an op's accepted line announces: an interference run's jobs,
/// or the optimizer's planned upper bound per (policy, procs) pair — the
/// coarse grid plus the golden-section evaluations (memo hits shrink the
/// real count).
std::size_t op_points(const Request& req) {
  if (req.op == Request::Op::kInterference) return req.mix.jobs.size();
  const std::size_t combos = std::max<std::size_t>(1, req.opt.policies.size()) *
                             std::max<std::size_t>(1, req.opt.processor_candidates.size());
  return combos * (req.opt.grid + (req.opt.refine_iters > 0 ? req.opt.refine_iters + 1 : 0));
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
    case Request::Op::kInterference:
    case Request::Op::kOptimize:
      submit(std::move(req), line, sink);
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
                         [&id](const CampaignPtr& c) { return c->req.id == id; })) {
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

bool CampaignServer::submit(Request&& req, std::string_view raw_line, const Sink& sink) {
  obs::ServiceCounters& svcc = metrics_->service();
  const auto c = std::make_shared<Campaign>(pool_, metrics_, std::move(req), sink);
  std::vector<std::thread> ended;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!admit(c->req.id, sink, lock)) return false;
    campaigns_.push_back(c);  // holds the id and a queue slot from here on
    svcc.queue_depth.store(static_cast<std::int64_t>(campaigns_.size()),
                           std::memory_order_relaxed);
    ended.swap(ended_);
  }
  for (std::thread& t : ended) t.join();
  const bool sweep = c->req.op == Request::Op::kSweep;
  try {
    // Durable admission record, written outside mu_ and before `accepted`
    // or any replication: if the process dies — SIGKILL included — from
    // here on, a restart finds the request line in the ledger and
    // re-admits it.
    if (sweep && ledger_ != nullptr) ledger_->admit(c->req.id, std::string(raw_line));
    svcc.accepted.fetch_add(1, std::memory_order_relaxed);
    if (sweep) {
      start_sweep(*c);
      if (!c->run) {
        drive(c);  // served wholly from the cache: nothing to wait for
        return true;
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (!sweep) c->outbox.push_back(response_accepted(c->req.id, op_points(c->req), /*cached=*/0));
    flush(*c, lock);  // the accepted line, unless a worker took it
    c->driver = std::thread([this, c] { drive(c); });
    ++drivers_;
  } catch (...) {
    // A failed ledger append or thread start: unlist the campaign before
    // the error leaves, so no drain() or stop() waits for a campaign that
    // no driver ends.
    c->stop.store(true, std::memory_order_relaxed);
    c->run.reset();  // drops its queued replications, waits for the running ones
    const std::lock_guard<std::mutex> lock(mu_);
    if (!std::exchange(c->ended, true)) unlist(*c);
    throw;
  }
  return true;
}

void CampaignServer::start_sweep(Campaign& c) {
  obs::ServiceCounters& svcc = metrics_->service();
  Request& r = c.req;
  // Materialize every point and restore what the cache already holds.  The
  // fingerprint is exactly the sweep journal's, so a CLI --journal file
  // warms this lookup and vice versa.  Nothing else reads the outbox or
  // the points until the run below queues the first round.
  for (const double x : r.values) {
    Point& pt = c.points.emplace_back();
    pt.x = x;
    pt.params = apply_axis(r.axis, r.params, x);
    pt.fingerprint = journal_fingerprint(r.label, pt.params, r.spec, r.engine, x);
    RunResult hit;
    if (cache_.lookup(pt.fingerprint, &hit)) {
      ++c.cached;
      svcc.cache_hits.fetch_add(1, std::memory_order_relaxed);
      svcc.points_completed.fetch_add(1, std::memory_order_relaxed);
      c.outbox.push_back(response_point(r.id, x, /*cached=*/true, hit));
    } else {
      svcc.cache_misses.fetch_add(1, std::memory_order_relaxed);
      c.pending.push_back(c.points.size() - 1);
    }
  }
  c.outbox.push_front(response_accepted(r.id, c.points.size(), c.cached));
  c.unfinished = c.pending.size();
  if (c.pending.empty()) return;
  Campaign* const cp = &c;
  c.run.emplace(
      r.spec,
      Replicated<ReplicationResult>{
          .points = c.pending.size(),
          .attempt = [this, cp](std::size_t q, std::uint64_t seed, obs::ReplicationProbe* probe,
                                const SnapshotSpec* snapshot) {
            metrics_->service().replications_run.fetch_add(1, std::memory_order_relaxed);
            const Request& req = cp->req;
            return run_replication(cp->points[cp->pending[q]].params, req.engine, seed,
                                   req.spec.transient, req.spec.horizon, probe,
                                   req.spec.watchdog.max_events, {}, snapshot);
          },
          .reward = [](const ReplicationResult& rep) { return rep.useful_fraction; },
          .finish = [this, cp](std::size_t q, const auto& rounds) {
            const std::size_t i = cp->pending[q];
            const Point& pt = cp->points[i];
            finish_point(*cp, i, aggregate_point(rounds, cp->req.spec.confidence_level, pt.params));
          },
          .snapshot = [this, cp](std::size_t q, std::size_t rep) {
            // Event-granular crash-resume, keyed by the point's cache
            // fingerprint (unique per simulated work, filename-safe for any
            // campaign id) plus the replication index; drain_stop_ parks the
            // replication at its next snapshot boundary when the daemon
            // drains.
            const Point& pt = cp->points[cp->pending[q]];
            char fp_hex[17];
            std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                          static_cast<unsigned long long>(pt.fingerprint));
            SnapshotSpec snap = replication_snapshot(
                pt.params, cp->req.spec, cp->req.engine, rep, config_.snapshot_every_events,
                config_.snapshot_dir + "/" + fp_hex + "-");
            snap.stop = &drain_stop_;
            return snap;
          },
          .fatal = [this, cp](std::size_t q, const ReplicationFailure& failure) {
            // Unlike sweep(), one bad point fails alone: its error line
            // carries the sweep-style context and the other points proceed.
            metrics_->service().errors.fetch_add(1, std::memory_order_relaxed);
            emit(*cp, response_error(cp->req.id, "point x = " +
                                                     std::to_string(cp->points[cp->pending[q]].x) +
                                                     ": " + describe_failure(failure)));
            std::unique_lock<std::mutex> lock(mu_);
            ++cp->failed;
            if (--cp->unfinished == 0) end_campaign(*cp, lock, cp->points.size());
            flush(*cp, lock);
          }});
}

void CampaignServer::drive(const CampaignPtr& c) {
  const Request& req = c->req;
  const bool sweep = req.op == Request::Op::kSweep;
  std::size_t points = c->points.size();
  std::string failure;
  bool interrupted = false;
  try {
    if (c->run) c->run->wait();
    if (!sweep) points = run_op(*c);
  } catch (const std::exception& e) {
    const auto* sim = dynamic_cast<const SimError*>(&e);
    interrupted = sim != nullptr && sim->code() == ErrorCode::kInterrupted;
    failure = std::string(sweep                                    ? "sweep"
                          : req.op == Request::Op::kInterference ? "interference"
                                                                 : "optimize") +
              " run failed: " + e.what();
  }
  std::unique_lock<std::mutex> lock(mu_);
  // Points on their way to the store thread end before the stream does.
  // A sweep whose every point ended is already ended: by the thread that
  // ended its last point.
  idle_cv_.wait(lock, [&c] { return c->storing == 0; });
  end_campaign(*c, lock, points, failure, interrupted);
  flush(*c, lock);
  // Handed over only once the thread sends nothing more, so joining it
  // never waits on a client's socket.
  if (c->driver.joinable()) {
    ended_.push_back(std::move(c->driver));
    --drivers_;
    idle_cv_.notify_all();
  }
}

void CampaignServer::end_campaign(Campaign& c, std::unique_lock<std::mutex>& lock,
                                  std::size_t points, const std::string& failure,
                                  bool interrupted) {
  if (std::exchange(c.ended, true)) return;
  const Request& req = c.req;
  const bool sweep = req.op == Request::Op::kSweep;
  // stop() ends every stream silently: the sinks are going away with the
  // server.
  std::string last;
  if (stopping_) {
  } else if (c.cancelled) {
    last = response_cancelled(req.id);
  } else if (interrupted) {
    if (!sweep) last = response_draining(req.id);  // a drained sweep stays pending
  } else if (!failure.empty()) {
    metrics_->service().errors.fetch_add(1, std::memory_order_relaxed);
    last = response_error(req.id, failure);
  } else {
    last = response_done(req.id, points, c.cached, c.failed);
  }
  if (sweep && !last.empty() && ledger_ != nullptr) {
    lock.unlock();
    try {
      ledger_->retire(req.id);
    } catch (const std::exception& e) {
      // The campaign stays pending: a restart re-admits it and serves its
      // finished points from the cache.
      metrics_->service().errors.fetch_add(1, std::memory_order_relaxed);
      last = response_error(req.id, std::string("cannot retire the campaign: ") + e.what());
    }
    lock.lock();
  }
  if (!last.empty() && !stopping_) c.outbox.push_back(std::move(last));
  unlist(c);
}

void CampaignServer::unlist(const Campaign& c) {
  campaigns_.remove_if([&c](const CampaignPtr& listed) { return listed.get() == &c; });
  metrics_->service().queue_depth.store(static_cast<std::int64_t>(campaigns_.size()),
                                        std::memory_order_relaxed);
  idle_cv_.notify_all();
}

std::size_t CampaignServer::run_op(Campaign& c) {
  obs::ServiceCounters& svcc = metrics_->service();
  const Request& req = c.req;
  if (req.op == Request::Op::kInterference) {
    const platform::InterferenceResult result = platform::run_interference(req.mix, req.spec);
    for (const platform::InterferenceJobResult& job : result.jobs) {
      emit(c, response_job(req.id, job));
      svcc.points_completed.fetch_add(1, std::memory_order_relaxed);
    }
    emit(c, response_platform(req.id, req.mix, result));
    svcc.replications_run.fetch_add(result.replications * req.mix.jobs.size(),
                                    std::memory_order_relaxed);
    return req.mix.jobs.size();
  }
  std::size_t evaluated = 0;
  const OptimumPolicy best =
      optimize(req.params, req.spec, req.opt, &cache_,
               [&](const OptimizeCandidate& candidate) {
                 emit(c, response_candidate(req.id, candidate));
                 ++evaluated;
                 svcc.points_completed.fetch_add(1, std::memory_order_relaxed);
               });
  emit(c, response_optimum(req.id, best));
  return evaluated;
}

void CampaignServer::cancel_campaign(const std::string& id, const Sink& sink) {
  obs::ServiceCounters& svcc = metrics_->service();
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = std::find_if(campaigns_.begin(), campaigns_.end(),
                               [&id](const CampaignPtr& c) { return c->req.id == id; });
  if (it == campaigns_.end() || (*it)->ended) {
    // Unknown id and already-completed campaign land here alike (ended
    // campaigns leave campaigns_, or are on their way out); both must
    // answer with a structured, machine-readable error — not a silent drop
    // or a bare message.
    lock.unlock();
    svcc.errors.fetch_add(1, std::memory_order_relaxed);
    sink(response_error_code(id, "unknown_campaign",
                             "unknown or already-completed campaign '" + id + "'"));
    return;
  }
  svcc.cancelled.fetch_add(1, std::memory_order_relaxed);
  // Cooperative, like RunSpec::cancel: raise the flag and drop the queued
  // replications; running ones finish and their outcomes are discarded.
  // Once they have, the campaign's stream ends with its own "cancelled".
  Campaign& c = **it;
  c.cancelled = true;
  c.stop.store(true, std::memory_order_relaxed);
  c.lane.drop();
  lock.unlock();
  sink(response_cancelled(id));
}

void CampaignServer::finish_point(Campaign& c, std::size_t point, RunResult result) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!c.cancelled && !stopping_) {  // else a late outcome, discarded
    // Insert before the "point" line is queued: by the time a client reads
    // the response, the entry is fsync'd and survives a daemon restart.  A
    // persistent insert waits on the disk, so the store thread makes it and
    // ends the point.
    if (cache_.persistent()) {
      ++c.storing;
      stores_.push_back(PendingStore{c.shared_from_this(), point, std::move(result)});
      store_cv_.notify_one();
      return;
    }
    cache_.insert(c.points[point].fingerprint, c.points[point].x, result);
    publish_point(c, point, result);
  }
  // The last of a sweep's points to end ends the sweep, before this
  // worker takes other work.
  if (--c.unfinished == 0) end_campaign(c, lock, c.points.size());
  flush(c, lock);
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
      const Point& pt = s.campaign->points[s.point];
      entries.push_back(SweepJournal::Entry{pt.fingerprint, pt.x, s.result});
    }
    cache_.insert_all(entries);
    lock.lock();
    for (const PendingStore& s : batch) {
      Campaign& c = *s.campaign;
      publish_point(c, s.point, s.result);
      --c.storing;
      if (--c.unfinished == 0) end_campaign(c, lock, c.points.size());
    }
    idle_cv_.notify_all();
    for (const PendingStore& s : batch) flush(*s.campaign, lock);
  }
}

void CampaignServer::publish_point(Campaign& c, std::size_t point, const RunResult& result) {
  const Point& pt = c.points[point];
  metrics_->record_point(obs::PointRecord{c.req.label, pt.x, result.replications, result.rounds});
  metrics_->service().points_completed.fetch_add(1, std::memory_order_relaxed);
  // stop() ends every stream: its sink is going away with the server.
  if (!stopping_) c.outbox.push_back(response_point(c.req.id, pt.x, /*cached=*/false, result));
}

void CampaignServer::emit(Campaign& c, std::string line) {
  std::unique_lock<std::mutex> lock(mu_);
  if (c.cancelled || stopping_) return;
  c.outbox.push_back(std::move(line));
  flush(c, lock);
}

void CampaignServer::flush(Campaign& c, std::unique_lock<std::mutex>& lock) {
  if (!c.flushing && !c.outbox.empty()) {
    c.flushing = true;
    ++flushers_;
    while (!c.outbox.empty()) {
      std::deque<std::string> batch;
      batch.swap(c.outbox);
      lock.unlock();
      for (const std::string& line : batch) c.sink(line);
      lock.lock();
    }
    c.flushing = false;
    --flushers_;
    idle_cv_.notify_all();
  }
}

void CampaignServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  // Wait for the response streams too: an ended campaign's last lines may
  // still be in a flusher's hands.
  idle_cv_.wait(lock, [this] { return campaigns_.empty() && flushers_ == 0; });
}

void CampaignServer::begin_drain() {
  // Raise the replication-level stop first: a worker that picks up its
  // campaign's snapshot hook after this sees the flag at the very next
  // boundary.
  drain_stop_.store(true, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  for (const CampaignPtr& c : campaigns_) {
    c->stop.store(true, std::memory_order_relaxed);
    c->lane.drop();
  }
}

bool CampaignServer::drained() {
  const std::lock_guard<std::mutex> lock(mu_);
  return draining_ && campaigns_.empty() && flushers_ == 0;
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
    if (submit(std::move(req), line, sink)) ++admitted;
  }
  return admitted;
}

void CampaignServer::stop() {
  // In-flight replications park at their next snapshot boundary (when
  // snapshots are on) instead of running to completion, so the wait is
  // prompt and their progress survives in the snapshot files.
  drain_stop_.store(true, std::memory_order_relaxed);
  std::vector<std::thread> drivers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (const CampaignPtr& c : campaigns_) {
      c->stop.store(true, std::memory_order_relaxed);
      c->lane.drop();
    }
    idle_cv_.wait(lock, [this] { return campaigns_.empty() && drivers_ == 0; });
    drivers.swap(ended_);
  }
  for (std::thread& t : drivers) t.join();
  // No campaign queues a point any more: the store thread inserts what
  // they left (finished points stay cached) and exits.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stores_closed_ = true;
  }
  store_cv_.notify_all();
  if (store_thread_.joinable()) store_thread_.join();
}

}  // namespace ckptsim::svc
