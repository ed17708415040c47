#include "src/platform/pfs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ckptsim::platform {

namespace {
/// Completion slack in bytes: a transfer whose remainder has been reduced
/// to rounding noise is finished.  Transfers are megabytes at minimum, so
/// half a byte is far above 1-ulp drift and far below any real remainder.
constexpr double kDoneEpsilonBytes = 0.5;
}  // namespace

const char* to_string(PfsPolicy policy) noexcept {
  switch (policy) {
    case PfsPolicy::kFairShare: return "fair";
    case PfsPolicy::kFcfs: return "fcfs";
    case PfsPolicy::kBlockingCooperative: return "coop";
    case PfsPolicy::kStaggered: return "stagger";
  }
  return "unknown";
}

PfsServer::PfsServer(sim::PendingSet& pending, sim::PendingSet::Key complete_key,
                     sim::PendingSet::Key first_grant_key, double bandwidth, PfsPolicy policy)
    : pending_(pending),
      complete_key_(complete_key),
      first_grant_key_(first_grant_key),
      bandwidth_(bandwidth),
      policy_(policy) {
  if (!std::isfinite(bandwidth) || bandwidth <= 0.0) {
    throw std::invalid_argument("PfsServer: bandwidth must be finite and > 0 (got " +
                                std::to_string(bandwidth) + ")");
  }
}

void PfsServer::note(trace::EventKind kind, double value) {
  if (log_ != nullptr) log_->record(pending_.now(), kind, value);
  if (counts_ != nullptr) counts_->bump(kind);
}

std::size_t PfsServer::queued_now() const noexcept {
  return inflight_.size() - active_count();
}

std::size_t PfsServer::active_now() const noexcept { return active_count(); }

double PfsServer::stretch_sum(std::size_t job) const {
  return job < stretch_sum_.size() ? stretch_sum_[job] : 0.0;
}

std::uint64_t PfsServer::completed(std::size_t job) const {
  return job < completed_.size() ? completed_[job] : 0;
}

void PfsServer::advance(double now) {
  const double elapsed = now - last_advance_;
  last_advance_ = now;
  if (elapsed <= 0.0 || inflight_.empty()) return;
  if (serial()) {
    inflight_.front().remaining -= bandwidth_ * elapsed;
  } else {
    const double share = bandwidth_ * elapsed / static_cast<double>(inflight_.size());
    for (Transfer& t : inflight_) t.remaining -= share;
  }
}

void PfsServer::complete() {
  advance(pending_.now());
  reconcile();
}

void PfsServer::reconcile() {
  const double now = pending_.now();
  std::vector<Transfer> finished;
  pending_.disarm(complete_key_);
  for (;;) {
    // Detach finished transfers (arrival order).  Under a serial discipline
    // only the head receives bandwidth, so only a finished head completes.
    if (serial()) {
      while (!inflight_.empty() && inflight_.front().remaining <= kDoneEpsilonBytes) {
        finished.push_back(std::move(inflight_.front()));
        inflight_.erase(inflight_.begin());
      }
    } else {
      for (auto it = inflight_.begin(); it != inflight_.end();) {
        if (it->remaining <= kDoneEpsilonBytes) {
          finished.push_back(std::move(*it));
          it = inflight_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (inflight_.empty()) break;
    // Re-arm the single completion event at the exact next finish time.
    const double n = static_cast<double>(inflight_.size());
    double dt = 0.0;
    if (serial()) {
      dt = inflight_.front().remaining / bandwidth_;
    } else {
      double min_remaining = inflight_.front().remaining;
      for (const Transfer& t : inflight_) min_remaining = std::min(min_remaining, t.remaining);
      dt = min_remaining * n / bandwidth_;
    }
    if (now + dt > now) {
      pending_.arm_in(complete_key_, dt);
      break;
    }
    // dt is below the fp resolution of `now` (late in a long run, an event
    // at now + dt fires at `now` again with zero elapsed time): advancing
    // the clock can never shrink this sliver, so finish it here — the
    // alternative is a zero-delay completion event looping forever.
    if (serial()) {
      inflight_.front().remaining = 0.0;
    } else {
      for (Transfer& t : inflight_) {
        if (now + t.remaining * n / bandwidth_ <= now) t.remaining = 0.0;
      }
    }
  }
  for (const Transfer& t : finished) {
    const double ideal = t.bytes / bandwidth_;
    const std::size_t need = t.job + 1;
    if (stretch_sum_.size() < need) stretch_sum_.resize(need, 0.0);
    if (completed_.size() < need) completed_.resize(need, 0);
    stretch_sum_[t.job] += (now - t.submitted) / ideal;
    ++completed_[t.job];
    ++completed_total_;
    note(trace::EventKind::kPfsServiceDone, static_cast<double>(t.job));
  }
  // Newly active transfers start receiving bandwidth now.
  const std::size_t actives = active_count();
  for (std::size_t i = 0; i < actives; ++i) {
    if (!inflight_[i].started) {
      inflight_[i].started = true;
      note(trace::EventKind::kPfsServiceStarted, static_cast<double>(inflight_[i].job));
    }
  }
  busy_.set_rate(now, inflight_.empty() ? 0.0 : 1.0);
  // Callbacks run last: a done() that submits a new transfer re-enters
  // reconcile() against consistent bookkeeping.
  for (Transfer& t : finished) {
    if (t.done) t.done();
  }
}

PfsServer::RequestId PfsServer::submit(std::size_t job, double bytes,
                                       std::function<void()> done) {
  if (!std::isfinite(bytes) || bytes <= 0.0) {
    throw std::invalid_argument("PfsServer::submit: byte count must be finite and > 0 (got " +
                                std::to_string(bytes) + ")");
  }
  advance(pending_.now());
  Transfer t;
  t.id = next_id_++;
  t.job = job;
  t.bytes = bytes;
  t.remaining = bytes;
  t.submitted = pending_.now();
  t.done = std::move(done);
  inflight_.push_back(std::move(t));
  note(trace::EventKind::kPfsRequestQueued, static_cast<double>(job));
  const RequestId id = inflight_.back().id;
  reconcile();
  return id;
}

bool PfsServer::cancel(RequestId id) {
  advance(pending_.now());
  for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
    if (it->id == id) {
      inflight_.erase(it);
      ++cancelled_total_;
      reconcile();
      return true;
    }
  }
  return false;
}

void PfsServer::request_grant(std::size_t job) {
  grant_queue_.push_back(job);
  if (!grant_busy_) grant_next();
}

void PfsServer::grant_next() {
  grant_busy_ = true;
  grant_holder_ = grant_queue_.front();
  grant_queue_.pop_front();
  // Grants always arrive as events (never synchronously inside the
  // requester's call) so the model sees one consistent re-entry point.
  pending_.arm_in(first_grant_key_ + static_cast<sim::PendingSet::Key>(grant_holder_), 0.0);
}

bool PfsServer::cancel_grant(std::size_t job) {
  for (auto it = grant_queue_.begin(); it != grant_queue_.end(); ++it) {
    if (*it == job) {
      grant_queue_.erase(it);
      return true;
    }
  }
  return false;
}

void PfsServer::release_grant(std::size_t job) {
  if (!grant_busy_ || grant_holder_ != job) {
    throw std::logic_error("PfsServer::release_grant: job " + std::to_string(job) +
                           " does not hold the reservation");
  }
  grant_busy_ = false;
  if (!grant_queue_.empty()) grant_next();
}

bool PfsServer::grant_held_by(std::size_t job) const noexcept {
  return grant_busy_ && grant_holder_ == job;
}

}  // namespace ckptsim::platform
