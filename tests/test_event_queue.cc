#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"

namespace {

using ckptsim::sim::EventBudgetExceeded;
using ckptsim::sim::EventHandle;
using ckptsim::sim::EventQueue;
using ckptsim::sim::QueueStats;

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_TRUE(std::isinf(q.peek_time()));
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule(2.0, [&] {
    q.schedule_in(3.0, [&] { fired_at = q.now(); });
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EventQueue, RejectsPastAndEmptyCallback) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(10.0, nullptr), std::invalid_argument);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(h.valid());
  q.run_all();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelOfFiredHandleIsNoOp) {
  EventQueue q;
  EventHandle h = q.schedule(1.0, [] {});
  q.run_all();
  EXPECT_FALSE(q.cancel(h));  // already fired
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelInvalidHandle) {
  EventQueue q;
  EventHandle h;  // never scheduled
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, DoubleCancelReturnsFalseSecondTime) {
  EventQueue q;
  EventHandle h = q.schedule(1.0, [] {});
  EventHandle copy = h;
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(copy));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventHandle a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.step();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PeekSkipsCancelled) {
  EventQueue q;
  EventHandle a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.peek_time(), 2.0);
}

TEST(EventQueue, RunUntilFiresBoundaryEventsAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  q.schedule(3.0, [&] { ++fired; });
  EXPECT_EQ(q.run_until(2.0), 2u);  // the event at exactly 2.0 fires
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.size(), 1u);
  q.run_until(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);  // clock advances to the horizon
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) q.schedule_in(1.0, chain);
  };
  q.schedule(0.0, chain);
  q.run_all();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(q.now(), 99.0);
}

TEST(EventQueue, CallbackMayCancelOtherEvent) {
  EventQueue q;
  bool second_fired = false;
  EventHandle second = q.schedule(2.0, [&] { second_fired = true; });
  q.schedule(1.0, [&] { q.cancel(second); });
  q.run_all();
  EXPECT_FALSE(second_fired);
}

TEST(EventQueue, FiredCountsLifetimeFirings) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(i, [] {});
  q.run_all();
  EXPECT_EQ(q.fired(), 5u);
}

TEST(EventQueue, DeadCountStartsAtZero) {
  EventQueue q;
  EXPECT_EQ(q.dead_count(), 0u);
  EventHandle h = q.schedule(1.0, [] {});
  EXPECT_EQ(q.dead_count(), 0u);
  q.cancel(h);
  EXPECT_EQ(q.dead_count(), 1u);  // tombstone awaiting lazy removal
  q.run_all();
  EXPECT_EQ(q.dead_count(), 0u);
}

TEST(EventQueue, CancelHeavyWorkloadKeepsHeapBounded) {
  // The failure-timer churn pattern: a far-future event is scheduled and
  // immediately re-sampled (cancel + reschedule) over and over.  Without
  // compaction every cancelled entry would sit in the heap until the far
  // future reached the top — 200000 tombstones here.  Compaction keeps the
  // dead entries at most ~(live + compaction threshold).
  EventQueue q;
  std::vector<EventHandle> live;
  for (int i = 0; i < 16; ++i) {
    live.push_back(q.schedule(1e12 + i, [] {}));
  }
  EventHandle churn = q.schedule(1e9, [] {});
  for (int i = 0; i < 200000; ++i) {
    q.cancel(churn);
    churn = q.schedule(1e9 + i, [] {});
  }
  EXPECT_EQ(q.size(), 17u);  // 16 parked + the churned timer
  EXPECT_LE(q.dead_count(), 128u);  // bounded, not 200000
}

TEST(EventQueue, CompactionPreservesFiringOrderAndPending) {
  // Interleave cancels with survivors so compaction triggers repeatedly,
  // then verify the surviving events fire in exactly time order.
  EventQueue q;
  std::vector<double> fired;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 4096; ++i) {
    const double t = static_cast<double>((i * 7919) % 100000);
    if (i % 8 == 0) {
      q.schedule(t, [&fired, t] { fired.push_back(t); });
    } else {
      doomed.push_back(q.schedule(t, [] { ADD_FAILURE() << "cancelled event fired"; }));
    }
  }
  for (auto& h : doomed) q.cancel(h);
  EXPECT_LE(q.dead_count(), q.size() + 64u);
  q.run_all();
  EXPECT_EQ(fired.size(), 512u);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i]);
  EXPECT_EQ(q.dead_count(), 0u);
}

TEST(EventQueue, StatsTrackPeaksCancelsAndFirings) {
  EventQueue q;
  EXPECT_EQ(q.stats().scheduled, 0u);
  std::vector<EventHandle> hs;
  for (int i = 0; i < 10; ++i) hs.push_back(q.schedule_in(1.0 + i, [] {}));
  EXPECT_EQ(q.stats().peak_size, 10u);
  EXPECT_EQ(q.stats().scheduled, 10u);
  for (int i = 0; i < 4; ++i) q.cancel(hs[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.stats().cancelled, 4u);
  EXPECT_EQ(q.stats().peak_dead, 4u);  // below the compaction threshold
  q.run_all();
  const auto s = q.stats();
  EXPECT_EQ(s.fired, 6u);
  EXPECT_EQ(s.peak_size, 10u);  // peak is a high-water mark, not current
}

TEST(EventQueue, StatsCountCompactions) {
  // The cancel-heavy pattern from CancelHeavyWorkloadKeepsHeapBounded must
  // trip the tombstone compaction and the stats must record it.
  EventQueue q;
  q.schedule(1e12, [] {});
  for (int i = 0; i < 4096; ++i) {
    auto h = q.schedule_in(1e9, [] {});
    q.cancel(h);
  }
  EXPECT_GT(q.stats().compactions, 0u);
  EXPECT_GT(q.stats().peak_dead, 0u);
  EXPECT_EQ(q.stats().cancelled, 4096u);
}

TEST(EventQueue, StatsMergeAddsCountsAndMaxesPeaks) {
  ckptsim::sim::QueueStats a{10, 8, 2, 1, 100, 5};
  const ckptsim::sim::QueueStats b{1, 1, 1, 0, 7, 50};
  a.merge(b);
  EXPECT_EQ(a.scheduled, 11u);
  EXPECT_EQ(a.fired, 9u);
  EXPECT_EQ(a.cancelled, 3u);
  EXPECT_EQ(a.compactions, 1u);
  EXPECT_EQ(a.peak_size, 100u);
  EXPECT_EQ(a.peak_dead, 50u);
}

TEST(EventQueue, RunUntilLandsOnTEndWhenQueueEmptiesEarly) {
  // Contract: now() == t_end on return whenever t_end >= the entry now(),
  // even when the last event fires well before t_end.
  EventQueue q;
  q.schedule(1.0, [] {});
  EXPECT_EQ(q.run_until(10.0), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, RunUntilLandsOnTEndWhenQueueWasEmpty) {
  EventQueue q;
  EXPECT_EQ(q.run_until(5.0), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, RunUntilLandsOnTEndWhenQueueEmptiedByCancel) {
  EventQueue q;
  auto h = q.schedule(7.0, [] {});
  q.cancel(h);
  EXPECT_EQ(q.run_until(3.0), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  // A later window past the cancelled event's time also lands exactly.
  EXPECT_EQ(q.run_until(9.0), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

TEST(EventQueue, LargeCaptureCallbackUsesHeapFallback) {
  // A capture bigger than the inline buffer must round-trip through the
  // heap-allocated path with its payload intact.
  EventQueue q;
  struct Payload {
    double values[16];
  } payload{};
  for (int i = 0; i < 16; ++i) payload.values[i] = i * 1.5;
  static_assert(sizeof(Payload) > 32, "payload must exceed the inline buffer");
  double sum = 0.0;
  q.schedule(1.0, [payload, &sum] {
    for (const double v : payload.values) sum += v;
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(sum, 1.5 * (15 * 16 / 2));
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsNoOp) {
  // A handle kept across its event's firing must not cancel an unrelated
  // event that recycled the same internal slot.
  EventQueue q;
  int fired_a = 0, fired_b = 0;
  auto ha = q.schedule(1.0, [&fired_a] { ++fired_a; });
  EXPECT_TRUE(q.step());  // fires A, releasing its slot
  auto hb = q.schedule(2.0, [&fired_b] { ++fired_b; });
  EXPECT_FALSE(q.cancel(ha));  // stale: the slot now belongs to B
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
  EXPECT_TRUE(q.cancel(hb) == false);  // B already fired
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 20000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    q.schedule(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  q.run_all();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(q.fired(), 20000u);
}

TEST(EventQueue, RejectsNonFiniteScheduleTimes) {
  // A NaN time would silently poison the ordering comparator (NaN compares
  // false against everything) and reorder every later event; infinities
  // would park events that can never fire.  All are rejected up front,
  // with the queue left untouched.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EventQueue q;
  EXPECT_THROW(q.schedule(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(-inf, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(inf, [] {}), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().scheduled, 0u);
}

TEST(EventQueue, RejectsNonFiniteRunUntil) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EventQueue q;
  q.schedule(1.0, [] {});
  EXPECT_THROW(q.run_until(nan), std::invalid_argument);
  EXPECT_THROW(q.run_until(inf), std::invalid_argument);
  // The failed calls fired nothing and left the clock alone.
  EXPECT_EQ(q.fired(), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_EQ(q.run_until(2.0), 1u);  // still usable afterwards
}

TEST(EventQueue, PeakDeadIsRecordedBeforeLazyTombstoneRemoval) {
  // Regression: drop_dead() used to discard tombstones from the heap top
  // without first recording the high-water mark, so a peek after a cancel
  // burst under-reported peak_dead.  The peak must reflect the burst even
  // though peek_time() then reclaims the entries.
  EventQueue q;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 24; ++i) doomed.push_back(q.schedule(1.0 + i, [] {}));
  q.schedule(100.0, [] {});
  for (auto& h : doomed) q.cancel(h);
  EXPECT_DOUBLE_EQ(q.peek_time(), 100.0);  // triggers lazy removal
  EXPECT_GE(q.stats().peak_dead, 24u);
}

/// Reference model of the queue's contract: a map ordered by (time,
/// insertion sequence), slow but plainly right.  The scripts below drive it
/// and an EventQueue side by side, recording every firing as (tag, time).
struct ReferenceQueue {
  using Key = std::pair<double, std::uint64_t>;
  std::map<Key, int> pending;
  std::uint64_t next_seq = 0;
  double now = 0.0;
  QueueStats stats;
  std::vector<std::pair<int, double>> trace;

  Key schedule(int tag, double t) {
    const Key k{t, next_seq++};
    pending.emplace(k, tag);
    ++stats.scheduled;
    stats.peak_size = std::max(stats.peak_size, pending.size());
    return k;
  }
  bool cancel(const Key& k) {
    if (pending.erase(k) == 0) return false;
    ++stats.cancelled;
    return true;
  }
  void fire_next() {
    const auto it = pending.begin();
    now = it->first.first;
    trace.emplace_back(it->second, now);
    pending.erase(it);
    ++stats.fired;
  }
  std::uint64_t run_until(double t_end) {
    std::uint64_t n = 0;
    for (; !pending.empty() && pending.begin()->first.first <= t_end; ++n) fire_next();
    now = t_end;
    return n;
  }
  std::uint64_t run_all() {
    std::uint64_t n = 0;
    for (; !pending.empty(); ++n) fire_next();
    return n;
  }
};

/// An EventQueue whose events record (tag, fire time) when they fire.
struct Recorded {
  EventQueue q;
  std::vector<std::pair<int, double>> trace;

  EventHandle schedule(int tag, double t) {
    return q.schedule(t, [this, tag] { trace.emplace_back(tag, q.now()); });
  }
};

void expect_matches(const Recorded& real, const ReferenceQueue& ref) {
  EXPECT_EQ(real.trace, ref.trace);
  EXPECT_EQ(real.q.now(), ref.now);
  EXPECT_EQ(real.q.size(), ref.pending.size());
  EXPECT_EQ(real.q.fired(), ref.stats.fired);
  const QueueStats s = real.q.stats();
  EXPECT_EQ(s.scheduled, ref.stats.scheduled);
  EXPECT_EQ(s.fired, ref.stats.fired);
  EXPECT_EQ(s.cancelled, ref.stats.cancelled);
  EXPECT_EQ(s.peak_size, ref.stats.peak_size);
  // compactions / peak_dead are tombstone bookkeeping the reference lacks.
}

/// Replays one seeded random script: schedule at a random time (sometimes
/// quantized to force exact ties, sometimes flung 1e7 into the future),
/// cancel a random handle (possibly fired or already cancelled), or
/// run_until a random intermediate horizon.
void run_random_script(std::uint64_t seed, bool quantize) {
  std::mt19937_64 gen(seed);
  Recorded real;
  ReferenceQueue ref;
  std::vector<EventHandle> handles;
  std::vector<ReferenceQueue::Key> keys;
  std::uniform_real_distribution<double> span(0.0, 1000.0);
  std::uniform_int_distribution<int> op(0, 9);
  int tag = 0;
  double horizon = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const int kind = op(gen);
    if (kind < 5) {
      double t = ref.now + span(gen);
      if (quantize) t = ref.now + static_cast<int>(span(gen)) % 32;
      if (op(gen) == 0) t += 1e7;
      ++tag;
      handles.push_back(real.schedule(tag, t));
      keys.push_back(ref.schedule(tag, t));
    } else if (kind < 8) {
      if (handles.empty()) continue;
      const std::size_t k = std::uniform_int_distribution<std::size_t>(0, handles.size() - 1)(gen);
      EXPECT_EQ(real.q.cancel(handles[k]), ref.cancel(keys[k])) << "op " << i;
    } else {
      horizon += span(gen) * 0.5;
      EXPECT_EQ(real.q.run_until(horizon), ref.run_until(horizon)) << "op " << i;
    }
  }
  EXPECT_EQ(real.q.run_all(), ref.run_all());
  expect_matches(real, ref);
}

TEST(EventQueue, RandomScriptsMatchReference) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 20260808ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_script(seed, /*quantize=*/false);
  }
}

TEST(EventQueue, QuantizedTieScriptsMatchReference) {
  // Integer-quantized times force many exact time ties, so the order rests
  // entirely on the insertion-sequence tie-break.
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_script(seed, /*quantize=*/true);
  }
}

TEST(EventQueue, CancelHeavyChurnMatchesReference) {
  // The DES failure-timer pattern — a far-future timer re-sampled over and
  // over, cancelling the previous one — with short events firing in
  // between, so compaction runs while live entries keep being popped.
  std::mt19937_64 gen(7);
  Recorded real;
  ReferenceQueue ref;
  std::uniform_real_distribution<double> far(1e3, 1e6);
  std::uniform_real_distribution<double> near(0.0, 20.0);
  EventHandle timer;
  ReferenceQueue::Key timer_key{-1.0, 0};
  for (int i = 0; i < 20000; ++i) {
    EXPECT_EQ(real.q.cancel(timer), ref.cancel(timer_key)) << "iteration " << i;
    const double t = ref.now + far(gen);
    timer = real.schedule(i, t);
    timer_key = ref.schedule(i, t);
    if (i % 10 == 0) {
      const double s = ref.now + near(gen);
      real.schedule(-i, s);
      ref.schedule(-i, s);
    }
    if (i % 100 == 0) {
      const double stop = ref.now + 5.0;
      EXPECT_EQ(real.q.run_until(stop), ref.run_until(stop)) << "iteration " << i;
    }
  }
  EXPECT_GT(real.q.stats().compactions, 0u);
  EXPECT_EQ(real.q.run_all(), ref.run_all());
  expect_matches(real, ref);
}

TEST(EventQueue, FireBudgetStopsAtExactlyTheBudget) {
  // The watchdog throws before firing event budget + 1: exactly `budget`
  // events have run, in order, and the rest stay pending for a caller that
  // lifts the cap.
  for (const std::uint64_t budget : {1ULL, 7ULL, 33ULL}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    Recorded real;
    ReferenceQueue ref;
    real.q.set_fire_budget(budget);
    std::mt19937_64 gen(99 + budget);
    std::uniform_real_distribution<double> span(0.0, 100.0);
    for (int tag = 0; tag < 64; ++tag) {
      const double t = span(gen);
      real.schedule(tag, t);
      ref.schedule(tag, t);
    }
    try {
      (void)real.q.run_all();
      ADD_FAILURE() << "fire budget never tripped";
    } catch (const EventBudgetExceeded& e) {
      EXPECT_EQ(e.budget(), budget);
    }
    for (std::uint64_t i = 0; i < budget; ++i) ref.fire_next();
    expect_matches(real, ref);

    real.q.set_fire_budget(0);
    EXPECT_EQ(real.q.run_all(), 64u - budget);
    (void)ref.run_all();
    expect_matches(real, ref);
  }
}

TEST(EventQueue, SelfReschedulingChainsInterleaveBySequence) {
  // Callbacks that schedule their own follow-up while firing (the engines'
  // pattern).  Chains with periods 3 and 7.5 meet at every multiple of 15.
  // At t = 0 both were scheduled up front, a first; at each later meeting
  // b's event was scheduled first (b fired at t - 7.5, a at t - 3), so b
  // fires first.
  EventQueue q;
  std::vector<std::pair<char, double>> fired;
  std::function<void(char, double, int)> chain = [&](char tag, double period, int remaining) {
    fired.emplace_back(tag, q.now());
    if (remaining > 1) {
      (void)q.schedule_in(period, [&chain, tag, period, remaining] {
        chain(tag, period, remaining - 1);
      });
    }
  };
  (void)q.schedule(0.0, [&chain] { chain('a', 3.0, 40); });
  (void)q.schedule(0.0, [&chain] { chain('b', 7.5, 16); });
  EXPECT_EQ(q.run_until(130.0), 56u);
  EXPECT_DOUBLE_EQ(q.now(), 130.0);

  std::vector<std::pair<char, double>> expected;
  for (int i = 0; i < 40; ++i) expected.emplace_back('a', 3.0 * i);
  for (int i = 0; i < 16; ++i) expected.emplace_back('b', 7.5 * i);
  std::sort(expected.begin(), expected.end(), [](const auto& x, const auto& y) {
    if (x.second != y.second) return x.second < y.second;
    return x.second == 0.0 ? x.first < y.first : x.first > y.first;
  });
  EXPECT_EQ(fired, expected);
}

}  // namespace
