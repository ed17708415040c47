#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ckptsim::snapshot {
class StateReader;
class StateWriter;
}  // namespace ckptsim::snapshot

namespace ckptsim::sim {

/// Thrown when a fire budget (watchdog) is exhausted: the replication fired
/// more events than the caller allowed, which the execution drivers convert
/// into a structured kEventBudgetExceeded failure instead of a hung or
/// runaway worker.
class EventBudgetExceeded : public std::runtime_error {
 public:
  explicit EventBudgetExceeded(std::uint64_t budget)
      : std::runtime_error("fire budget of " + std::to_string(budget) + " events exhausted"),
        budget_(budget) {}

  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }

 private:
  std::uint64_t budget_;
};

/// Kept only for perfbench/src/replay.cc, which passes RunSpec::scheduler on.
enum class SchedulerKind : std::uint8_t { kBinaryHeap = 0 };

/// Lifetime statistics of one replication's pending set, cheap enough to
/// keep always-on.  `merge` combines replications: counts add, peaks take
/// the maximum.
struct QueueStats {
  std::uint64_t scheduled = 0;  ///< events armed
  std::uint64_t fired = 0;      ///< events that actually ran
  std::uint64_t cancelled = 0;  ///< disarms that hit an armed event
  std::size_t peak_size = 0;    ///< max armed events at any instant

  void merge(const QueueStats& o) noexcept;
};

/// Keyed pending-event set for discrete-event simulation.
///
/// Keys 0..n-1 name the events an owner can have pending (one per SAN
/// activity, one per job timer); each key is armed at most once at a time.
/// Armed keys fire in (time, insertion sequence) order, the sequence being
/// one run-wide counter, so ties in time fire in the order they were armed
/// and runs are fully deterministic.  The set is an indexed binary heap:
/// arm, disarm and fire are O(log n), need no tombstones, and never
/// allocate once constructed.  The set carries no callbacks: step() and
/// run_until() hand the fired key to the owner's `fire(key)`.
class PendingSet {
 public:
  using Key = std::uint32_t;

  /// A set over keys 0..keys-1, none armed, clock at 0.
  explicit PendingSet(std::size_t keys);

  /// Arm `key` at absolute time `t`.  `t` must be finite (a NaN would
  /// silently break the ordering, an infinity never fire) and >= now(),
  /// else std::invalid_argument; arming an armed key throws
  /// std::logic_error, and a key outside 0..n-1 std::out_of_range.
  void arm(Key key, double t);
  /// Arm `key` at now() + dt.
  void arm_in(Key key, double dt) { arm(key, now_ + dt); }

  /// Disarm `key`.  Returns true if it was armed (this call kept it from
  /// firing); a no-op otherwise.
  bool disarm(Key key) noexcept {
    if (key >= pos_.size() || pos_[key] == kUnarmed) return false;
    remove_at(pos_[key]);
    ++cancelled_;
    return true;
  }

  [[nodiscard]] bool armed(Key key) const noexcept {
    return key < pos_.size() && pos_[key] != kUnarmed;
  }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  /// Number of armed keys.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Current simulation time; advances only in step() / run_until().
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Time of the next event; +infinity when nothing is armed.
  [[nodiscard]] double peek_time() const noexcept;

  /// Fire the next event: disarm its key, advance now() to its time and
  /// call `fire(key)`, which may arm and disarm keys (its own included).
  /// Returns false when nothing is armed.  Throws EventBudgetExceeded
  /// instead of firing past the fire budget.
  template <typename Fire>
  bool step(Fire&& fire) {
    if (heap_.empty()) return false;
    fire_top(fire);
    return true;
  }

  /// Fire every event due at or before `t_end` (finite, else
  /// std::invalid_argument).  On return now() == t_end whenever t_end >= the
  /// entry now(), including when the set empties early or was empty all
  /// along.  Returns the events fired.
  template <typename Fire>
  std::uint64_t run_until(double t_end, Fire&& fire) {
    // A NaN t_end would fire nothing; an infinite one can never be landed on.
    if (!std::isfinite(t_end)) throw std::invalid_argument("PendingSet::run_until: bad t_end");
    std::uint64_t n = 0;
    for (; !heap_.empty() && heap_.front().time <= t_end; ++n) fire_top(fire);
    if (now_ < t_end) now_ = t_end;
    return n;
  }

  /// Watchdog: cap lifetime fired events at `max_fired` (0 = unlimited).
  void set_fire_budget(std::uint64_t max_fired) noexcept { fire_budget_ = max_fired; }

  /// Post-fire hook: called right after `fire(key)` returns (the model has
  /// fully processed the event) whenever the lifetime count of fired
  /// events is a multiple of `every` (0 disables).  The snapshot layer's
  /// periodic capture boundary, the same event-granular instant as the
  /// fire budget.
  void set_fire_hook(std::uint64_t every, std::function<void()> hook) {
    hook_every_ = every;
    hook_ = std::move(hook);
  }

  [[nodiscard]] QueueStats stats() const noexcept;

  /// Serialize the clock, the counters (scheduled, fired, cancelled, live
  /// peak) and every key as (time, seq), an unarmed key as (+inf, 0): the
  /// layout DesModel writes for its slots.  The fire budget and hook are
  /// the caller's execution controls, not state.
  void save_state(snapshot::StateWriter& w) const;

  /// Restore onto a set that has never armed a key (std::logic_error
  /// otherwise), over the same number of keys.  Everything is validated
  /// before anything mutates: a non-finite clock, an armed time that is not
  /// finite or lies before the clock, a sequence number at or past the
  /// counter or shared by two keys, an unarmed key with a sequence number,
  /// or counters that do not add up are kCorrupt; a short payload is
  /// kTruncated.
  void restore_state(snapshot::StateReader& r);

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    Key key;
  };
  static constexpr std::uint32_t kUnarmed = 0xFFFFFFFFu;

  static bool before(const Entry& a, const Entry& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }
  void place(std::size_t i, const Entry& e) noexcept {
    heap_[i] = e;
    pos_[e.key] = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  void remove_at(std::size_t i) noexcept;

  template <typename Fire>
  void fire_top(Fire& fire) {
    if (fire_budget_ != 0 && fired_ >= fire_budget_) throw EventBudgetExceeded(fire_budget_);
    const Entry top = heap_.front();
    remove_at(0);
    ++fired_;
    now_ = top.time;
    fire(top.key);
    if (hook_every_ != 0 && fired_ % hook_every_ == 0) hook_();
  }

  std::vector<Entry> heap_;         ///< binary heap under before()
  std::vector<std::uint32_t> pos_;  ///< key -> heap index, kUnarmed when not armed
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t fire_budget_ = 0;  ///< 0 = unlimited
  std::uint64_t hook_every_ = 0;   ///< 0 = no post-fire hook
  std::function<void()> hook_;
};

}  // namespace ckptsim::sim
