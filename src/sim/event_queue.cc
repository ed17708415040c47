#include "src/sim/event_queue.h"

#include "src/snapshot/state_io.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace ckptsim::sim {

namespace {
/// Below this stored size, tombstones are too cheap to bother compacting.
constexpr std::size_t kCompactMin = 64;
/// Leading byte of a saved queue: the pending-set backend.  Always the
/// binary heap now; snapshots from the removed calendar queue carry 1.
constexpr std::uint8_t kHeapBackend = 0;
constexpr std::uint8_t kCalendarBackend = 1;
}  // namespace

void QueueStats::merge(const QueueStats& o) noexcept {
  scheduled += o.scheduled;
  fired += o.fired;
  cancelled += o.cancelled;
  compactions += o.compactions;
  peak_size = std::max(peak_size, o.peak_size);
  peak_dead = std::max(peak_dead, o.peak_dead);
}

EventHandle EventQueue::schedule(double t, Callback fn) {
  // NaN slips past a plain `t < now_` check and then poisons the ordering
  // comparator, silently reordering every later event; +/-infinity would
  // park an event that can never fire (or fire "before" everything).
  // Reject both up front.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("EventQueue::schedule: non-finite time");
  }
  if (t < now_) throw std::invalid_argument("EventQueue::schedule: time in the past");
  if (!fn) throw std::invalid_argument("EventQueue::schedule: empty callback");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(generations_.size());
    generations_.push_back(0);
    // The freelist can hold at most one entry per slot; sizing it to the
    // slot table's capacity here keeps release() allocation-free, so the
    // steady-state schedule/fire/cancel cycle never touches the heap.
    free_slots_.reserve(generations_.capacity());
  }
  const std::uint64_t id = make_id(slot, generations_[slot]);
  heap_.push_back(Entry{t, next_seq_++, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  if (live_ > peak_size_) peak_size_ = live_;
  return EventHandle{id};
}

bool EventQueue::cancel(EventHandle& h) noexcept {
  if (!h.valid()) return false;
  const std::uint32_t slot = id_slot(h.id);
  const bool was_pending = slot < generations_.size() && is_live(h.id);
  if (was_pending) {
    release(h.id);
    ++cancelled_;
    note_peak_dead();
    maybe_compact();
  }
  h.clear();
  return was_pending;
}

QueueStats EventQueue::stats() const noexcept {
  QueueStats s;
  s.scheduled = next_seq_;
  s.fired = fired_;
  s.cancelled = cancelled_;
  s.compactions = compactions_;
  s.peak_size = peak_size_;
  s.peak_dead = peak_dead_;
  return s;
}

void EventQueue::maybe_compact() noexcept {
  // Keeps storage at <= 2x the live-event count: dead entries are erased
  // in place (no allocation) and the heap invariant rebuilt.
  const std::size_t stored = heap_.size();
  if (stored < kCompactMin || stored - live_ <= stored / 2) return;
  ++compactions_;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !is_live(e.id); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::drop_dead() const {
  // Record the tombstone peak before lazily removing them: a cancel burst
  // consumed entirely here (e.g. via peek_time) must still show up in
  // QueueStats::peak_dead, or obs snapshots under-report cancel pressure.
  note_peak_dead();
  while (!heap_.empty() && !is_live(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

double EventQueue::peek_time() const noexcept {
  drop_dead();
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.front().time;
}

bool EventQueue::step() {
  drop_dead();
  if (heap_.empty()) return false;
  if (fire_budget_ != 0 && fired_ >= fire_budget_) throw EventBudgetExceeded(fire_budget_);
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  release(e.id);
  ++fired_;
  now_ = e.time;
  e.fn();
  if (hook_every_ != 0 && fired_ % hook_every_ == 0) hook_fn_();
  return true;
}

void EventQueue::save_state(snapshot::StateWriter& w) const {
  w.u8(kHeapBackend);
  w.f64(now_);
  w.u64(next_seq_);
  w.u64(fired_);
  w.u64(cancelled_);
  w.u64(compactions_);
  w.u64(peak_size_);
  w.u64(peak_dead_);
  w.u64(generations_.size());
  for (const std::uint32_t g : generations_) w.u32(g);
  w.u64(free_slots_.size());
  for (const std::uint32_t s : free_slots_) w.u32(s);
  // Live entries only, in seq order: tombstones are skipped at fire time
  // anyway, so they cannot affect the restored trajectory, and seq order
  // makes the serialization canonical regardless of heap layout.
  std::vector<const Entry*> live;
  live.reserve(live_);
  for (const Entry& e : heap_) {
    if (is_live(e.id)) live.push_back(&e);
  }
  std::sort(live.begin(), live.end(),
            [](const Entry* a, const Entry* b) { return a->seq < b->seq; });
  w.u64(live.size());
  for (const Entry* e : live) {
    w.f64(e->time);
    w.u64(e->seq);
    w.u64(e->id);
  }
}

void EventQueue::restore_state(snapshot::StateReader& r, const RebuildFn& rebuild) {
  using snapshot::SnapshotError;
  using snapshot::SnapshotFault;
  if (next_seq_ != 0 || !generations_.empty() || now_ != 0.0 || fired_ != 0) {
    throw std::logic_error("EventQueue::restore_state: queue is not pristine");
  }
  const std::uint8_t backend = r.u8();
  if (backend == kCalendarBackend) {
    throw SnapshotError(SnapshotFault::kContextMismatch,
                        "snapshot was taken under the removed calendar-queue scheduler; every "
                        "engine now uses the binary heap");
  }
  if (backend != kHeapBackend) {
    throw SnapshotError(SnapshotFault::kCorrupt, "queue snapshot: unknown scheduler byte");
  }
  const double now = r.f64();
  if (!std::isfinite(now)) {
    throw SnapshotError(SnapshotFault::kCorrupt, "queue snapshot: non-finite clock");
  }
  const std::uint64_t next_seq = r.u64();
  const std::uint64_t fired = r.u64();
  const std::uint64_t cancelled = r.u64();
  const std::uint64_t compactions = r.u64();
  const std::uint64_t peak_size = r.u64();
  const std::uint64_t peak_dead = r.u64();
  const std::uint64_t n_slots = r.u64();
  if (n_slots > 0xFFFFFFFFull) {
    throw SnapshotError(SnapshotFault::kCorrupt, "queue snapshot: slot table too large");
  }
  std::vector<std::uint32_t> generations(static_cast<std::size_t>(n_slots));
  for (auto& g : generations) g = r.u32();
  const std::uint64_t n_free = r.u64();
  if (n_free > n_slots) {
    throw SnapshotError(SnapshotFault::kCorrupt,
                        "queue snapshot: freelist larger than the slot table");
  }
  std::vector<std::uint32_t> free_slots(static_cast<std::size_t>(n_free));
  // Every slot is either recycled (on the freelist) or occupied by exactly
  // one live entry; `seen` proves the partition is exact.
  std::vector<bool> seen(static_cast<std::size_t>(n_slots), false);
  for (auto& s : free_slots) {
    s = r.u32();
    if (s >= n_slots || seen[s]) {
      throw SnapshotError(SnapshotFault::kCorrupt, "queue snapshot: bad freelist slot");
    }
    seen[s] = true;
  }
  const std::uint64_t n_live = r.u64();
  if (n_live != n_slots - n_free) {
    throw SnapshotError(SnapshotFault::kCorrupt,
                        "queue snapshot: live count does not match the slot table");
  }
  struct Restored {
    double time;
    std::uint64_t seq;
    std::uint64_t id;
  };
  std::vector<Restored> entries(static_cast<std::size_t>(n_live));
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (auto& e : entries) {
    e.time = r.f64();
    e.seq = r.u64();
    e.id = r.u64();
    const std::uint32_t slot = id_slot(e.id);
    if (!std::isfinite(e.time) || e.time < now || e.seq >= next_seq ||
        (e.id & 0xFFFFFFFFu) == 0 || slot >= n_slots ||
        generations[slot] != id_generation(e.id) || seen[slot] ||
        (!first && e.seq <= prev_seq)) {
      throw SnapshotError(SnapshotFault::kCorrupt, "queue snapshot: inconsistent entry");
    }
    seen[slot] = true;
    prev_seq = e.seq;
    first = false;
  }
  // Resolve every callback up front: an id the owner cannot rebuild must
  // reject the restore before a single member mutates.
  std::vector<Callback> callbacks;
  callbacks.reserve(entries.size());
  for (const auto& e : entries) {
    Callback fn = rebuild(e.id);
    if (!fn) {
      throw SnapshotError(SnapshotFault::kCorrupt,
                          "queue snapshot: no handler for event id " + std::to_string(e.id));
    }
    callbacks.push_back(std::move(fn));
  }
  // Everything validated; mutate only from here on.
  now_ = now;
  next_seq_ = next_seq;
  fired_ = fired;
  cancelled_ = cancelled;
  compactions_ = compactions;
  peak_size_ = static_cast<std::size_t>(peak_size);
  peak_dead_ = static_cast<std::size_t>(peak_dead);
  generations_ = std::move(generations);
  free_slots_ = std::move(free_slots);
  free_slots_.reserve(generations_.capacity());
  live_ = static_cast<std::size_t>(n_live);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    heap_.push_back(Entry{entries[i].time, entries[i].seq, entries[i].id, std::move(callbacks[i])});
  }
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

std::uint64_t EventQueue::run_until(double t_end) {
  // A NaN t_end makes `peek_time() <= t_end` universally false (silently
  // firing nothing); +/-infinity can never be landed on exactly.  Callers
  // wanting "drain everything" have run_all().
  if (!std::isfinite(t_end)) {
    throw std::invalid_argument("EventQueue::run_until: non-finite t_end");
  }
  std::uint64_t n = 0;
  while (peek_time() <= t_end) {
    step();
    ++n;
  }
  // Contract: the clock lands exactly on t_end even when the queue empties
  // early (or was empty all along), not on the last fired event.
  if (now_ < t_end) now_ = t_end;
  return n;
}

std::uint64_t EventQueue::run_all() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

}  // namespace ckptsim::sim
