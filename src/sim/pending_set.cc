#include "src/sim/pending_set.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/snapshot/state_io.h"

namespace ckptsim::sim {

namespace {
/// Saved time of an unarmed key.
constexpr double kUnarmedTime = std::numeric_limits<double>::infinity();
}  // namespace

void QueueStats::merge(const QueueStats& o) noexcept {
  scheduled += o.scheduled;
  fired += o.fired;
  cancelled += o.cancelled;
  peak_size = std::max(peak_size, o.peak_size);
}

PendingSet::PendingSet(std::size_t keys) : pos_(keys, kUnarmed) {
  if (keys >= kUnarmed) throw std::length_error("PendingSet: too many keys");
  heap_.reserve(keys);
}

void PendingSet::arm(Key key, double t) {
  if (!std::isfinite(t)) throw std::invalid_argument("PendingSet::arm: non-finite time");
  if (t < now_) throw std::invalid_argument("PendingSet::arm: time in the past");
  if (key >= pos_.size()) {
    throw std::out_of_range("PendingSet::arm: key " + std::to_string(key) + " out of range");
  }
  if (pos_[key] != kUnarmed) {
    throw std::logic_error("PendingSet::arm: key " + std::to_string(key) + " already armed");
  }
  heap_.push_back(Entry{t, next_seq_++, key});
  sift_up(heap_.size() - 1);
  if (heap_.size() > peak_size_) peak_size_ = heap_.size();
}

double PendingSet::peek_time() const noexcept {
  return heap_.empty() ? kUnarmedTime : heap_.front().time;
}

void PendingSet::sift_up(std::size_t i) noexcept {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void PendingSet::sift_down(std::size_t i) noexcept {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

void PendingSet::remove_at(std::size_t i) noexcept {
  pos_[heap_[i].key] = kUnarmed;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  // The last entry fills the hole, then moves whichever way restores the
  // heap order.
  place(i, last);
  if (i > 0 && before(last, heap_[(i - 1) / 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

QueueStats PendingSet::stats() const noexcept {
  QueueStats s;
  s.scheduled = next_seq_;
  s.fired = fired_;
  s.cancelled = cancelled_;
  s.peak_size = peak_size_;
  return s;
}

void PendingSet::save_state(snapshot::StateWriter& w) const {
  w.f64(now_);
  w.u64(next_seq_);
  w.u64(fired_);
  w.u64(cancelled_);
  w.u64(peak_size_);
  for (const std::uint32_t at : pos_) {
    w.f64(at == kUnarmed ? kUnarmedTime : heap_[at].time);
    w.u64(at == kUnarmed ? 0 : heap_[at].seq);
  }
}

void PendingSet::restore_state(snapshot::StateReader& r) {
  using snapshot::SnapshotError;
  using snapshot::SnapshotFault;
  if (next_seq_ != 0 || fired_ != 0 || now_ != 0.0) {
    throw std::logic_error("PendingSet::restore_state: the set is not pristine");
  }
  const double now = r.f64();
  if (!std::isfinite(now)) {
    throw SnapshotError(SnapshotFault::kCorrupt, "pending set: non-finite clock");
  }
  const std::uint64_t next_seq = r.u64();
  const std::uint64_t fired = r.u64();
  const std::uint64_t cancelled = r.u64();
  const std::uint64_t peak = r.u64();
  std::vector<Entry> armed;
  for (Key key = 0; key < pos_.size(); ++key) {
    const double t = r.f64();
    const std::uint64_t seq = r.u64();
    if (t == kUnarmedTime) {
      if (seq != 0) {
        throw SnapshotError(SnapshotFault::kCorrupt, "pending set: unarmed key with a sequence");
      }
      continue;
    }
    if (!std::isfinite(t) || t < now || seq >= next_seq) {
      throw SnapshotError(SnapshotFault::kCorrupt, "pending set: inconsistent armed key");
    }
    armed.push_back(Entry{t, seq, key});
  }
  const auto by_seq = [](const Entry& a, const Entry& b) { return a.seq < b.seq; };
  const auto same_seq = [](const Entry& a, const Entry& b) { return a.seq == b.seq; };
  std::sort(armed.begin(), armed.end(), by_seq);
  if (std::adjacent_find(armed.begin(), armed.end(), same_seq) != armed.end()) {
    throw SnapshotError(SnapshotFault::kCorrupt, "pending set: duplicate event sequence");
  }
  // Every armed event has fired, been disarmed, or is still armed.
  const std::uint64_t live = armed.size();
  if (fired > next_seq || cancelled > next_seq - fired || live != next_seq - fired - cancelled ||
      peak < live) {
    throw SnapshotError(SnapshotFault::kCorrupt, "pending set: inconsistent event counters");
  }
  now_ = now;
  next_seq_ = next_seq;
  fired_ = fired;
  cancelled_ = cancelled;
  peak_size_ = static_cast<std::size_t>(peak);
  for (const Entry& e : armed) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }
}

}  // namespace ckptsim::sim
