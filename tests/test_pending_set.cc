// sim::PendingSet: keyed (time, arming order) firing, the arm/disarm
// contract, the clock and counters, the fire budget and hook, and the
// snapshot round trip.  Seeded scripts drive it beside a (time, seq) map
// reference and compare fire order, clock and counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/pending_set.h"
#include "src/snapshot/state_io.h"

namespace {

using ckptsim::sim::EventBudgetExceeded;
using ckptsim::sim::PendingSet;
using ckptsim::sim::QueueStats;
using ckptsim::snapshot::SnapshotError;
using ckptsim::snapshot::SnapshotFault;
using ckptsim::snapshot::StateReader;
using ckptsim::snapshot::StateWriter;
using Key = PendingSet::Key;
using Keys = std::vector<Key>;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fire callback that records the keys in firing order.
struct Order {
  Keys keys;
  void operator()(Key k) { keys.push_back(k); }
};

/// Fire until nothing is armed; returns the events fired.
template <typename Fire>
std::uint64_t drain(PendingSet& q, Fire&& fire) {
  std::uint64_t n = 0;
  while (q.step(fire)) ++n;
  return n;
}
std::uint64_t drain(PendingSet& q) {
  return drain(q, [](Key) {});
}

/// Arm keys 0, 1, ... at `times`, in that order.
PendingSet armed_at(std::size_t keys, const std::vector<double>& times) {
  PendingSet q(keys);
  for (Key k = 0; k < times.size(); ++k) q.arm(k, times[k]);
  return q;
}

TEST(PendingSet, StartsEmpty) {
  PendingSet q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_TRUE(std::isinf(q.peek_time()));
  EXPECT_FALSE(q.step([](Key) { ADD_FAILURE() << "fired on an empty set"; }));
}

TEST(PendingSet, FiresInTimeOrder) {
  PendingSet q = armed_at(3, {3.0, 1.0, 2.0});
  Order order;
  EXPECT_EQ(drain(q, order), 3u);
  EXPECT_EQ(order.keys, (Keys{1, 2, 0}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(PendingSet, TiesFireInArmingOrder) {
  PendingSet q(10);
  for (Key k = 10; k-- > 0;) q.arm(k, 5.0);  // armed 9, 8, ..., 0
  Order order;
  drain(q, order);
  EXPECT_EQ(order.keys, (Keys{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(PendingSet, ArmInIsRelativeAndAKeyMayRearmItselfWhileFiring) {
  PendingSet q = armed_at(1, {2.0});
  std::vector<double> times;
  drain(q, [&](Key k) {
    times.push_back(q.now());
    if (times.size() < 100) q.arm_in(k, 3.0);
  });
  ASSERT_EQ(times.size(), 100u);
  EXPECT_DOUBLE_EQ(times[1], 5.0);
  EXPECT_DOUBLE_EQ(q.now(), 2.0 + 99 * 3.0);
}

TEST(PendingSet, ArmingAnArmedKeyThrowsAndChangesNothing) {
  PendingSet q = armed_at(2, {1.0});
  EXPECT_THROW(q.arm(0, 2.0), std::logic_error);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.peek_time(), 1.0);
  EXPECT_EQ(q.stats().scheduled, 1u);
  EXPECT_THROW(q.arm(2, 1.0), std::out_of_range);
  drain(q);
  q.arm(0, 2.0);  // fired, so armable again
  EXPECT_EQ(q.size(), 1u);
}

TEST(PendingSet, RejectsPastAndNonFiniteTimes) {
  // A NaN time would poison the ordering (NaN compares false against
  // everything); an infinity could never fire.  The set is left untouched.
  PendingSet q = armed_at(2, {5.0});
  drain(q);
  for (const double t : {1.0, kNan, kInf, -kInf}) EXPECT_THROW(q.arm(0, t), std::invalid_argument);
  EXPECT_THROW(q.arm_in(1, kNan), std::invalid_argument);
  EXPECT_THROW(q.arm_in(1, -1.0), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().scheduled, 1u);
}

TEST(PendingSet, DisarmKeepsTheEventFromFiring) {
  PendingSet q = armed_at(3, {1.0, 2.0});
  EXPECT_TRUE(q.disarm(0));
  EXPECT_FALSE(q.disarm(0));  // already disarmed
  EXPECT_FALSE(q.disarm(2));  // never armed
  EXPECT_FALSE(q.disarm(7));  // no such key
  EXPECT_FALSE(q.armed(0));
  EXPECT_TRUE(q.armed(1));
  Order order;
  drain(q, order);
  EXPECT_EQ(order.keys, (Keys{1}));
  EXPECT_FALSE(q.disarm(1));  // fired
  EXPECT_EQ(q.stats().cancelled, 1u);
}

TEST(PendingSet, FireMayDisarmAnotherKey) {
  PendingSet q = armed_at(2, {1.0, 2.0});
  Order order;
  drain(q, [&](Key k) {
    order(k);
    q.disarm(1);
  });
  EXPECT_EQ(order.keys, (Keys{0}));
}

TEST(PendingSet, StepFiresOneEventAndAdvancesTheClock) {
  PendingSet q = armed_at(2, {4.0, 2.0});
  Order order;
  EXPECT_TRUE(q.step(order));
  EXPECT_EQ(order.keys, (Keys{1}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.stats().fired, 1u);
}

TEST(PendingSet, PeekTimeFollowsTheEarliestArmedKey) {
  PendingSet q = armed_at(3, {5.0});
  EXPECT_DOUBLE_EQ(q.peek_time(), 5.0);
  q.arm(1, 3.0);
  EXPECT_DOUBLE_EQ(q.peek_time(), 3.0);
  q.arm(2, 4.0);
  q.disarm(1);
  EXPECT_DOUBLE_EQ(q.peek_time(), 4.0);
  q.disarm(2);
  q.disarm(0);
  EXPECT_TRUE(std::isinf(q.peek_time()));
}

TEST(PendingSet, RearmingADisarmedKeyTakesANewPlaceInTheTieOrder) {
  // Re-arming draws a fresh sequence number: key 0, re-armed after key 1
  // at the same time, now fires after it.
  PendingSet q = armed_at(2, {1.0, 1.0});
  q.disarm(0);
  q.arm(0, 1.0);
  Order order;
  drain(q, order);
  EXPECT_EQ(order.keys, (Keys{1, 0}));
}

TEST(PendingSet, DisarmingFromTheMiddleKeepsTheHeapOrder) {
  // Removing entries from anywhere in the heap moves the last entry into
  // the hole, which must sift up or down as its time demands.
  constexpr Key kKeys = 257;
  std::mt19937_64 gen(5);
  std::uniform_real_distribution<double> span(0.0, 100.0);
  std::vector<double> times(kKeys);
  for (double& t : times) t = span(gen);
  PendingSet q = armed_at(kKeys, times);
  std::vector<std::pair<double, Key>> expected;
  for (Key k = 0; k < kKeys; ++k) {
    if (k % 3 == 0) {
      EXPECT_TRUE(q.disarm(k));
    } else {
      expected.emplace_back(times[k], k);
    }
  }
  std::sort(expected.begin(), expected.end());
  Order order;
  drain(q, order);
  ASSERT_EQ(order.keys.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(order.keys[i], expected[i].second);
}

TEST(PendingSet, AnEventArmedForNowFiresAfterThoseArmedBefore) {
  PendingSet q = armed_at(3, {1.0, 1.0});
  Order order;
  const auto fire = [&](Key k) {
    order(k);
    if (k == 0) q.arm_in(2, 0.0);
  };
  EXPECT_EQ(q.run_until(1.0, fire), 3u);
  EXPECT_EQ(order.keys, (Keys{0, 1, 2}));
}

TEST(PendingSet, RunUntilFiresBoundaryEventsAndLandsOnTheHorizon) {
  PendingSet q = armed_at(3, {1.0, 2.0, 3.0});
  Order order;
  EXPECT_EQ(q.run_until(2.0, order), 2u);  // the event at exactly 2.0 fires
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.run_until(10.0, order), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);  // emptied early, still lands on t_end
  EXPECT_EQ(q.run_until(12.0, order), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 12.0);  // empty all along
  q.arm(0, 20.0);
  q.disarm(0);
  EXPECT_EQ(q.run_until(25.0, order), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 25.0);  // emptied by a disarm
}

TEST(PendingSet, RejectsNonFiniteRunUntil) {
  PendingSet q = armed_at(1, {1.0});
  Order order;
  EXPECT_THROW(q.run_until(kNan, order), std::invalid_argument);
  EXPECT_THROW(q.run_until(kInf, order), std::invalid_argument);
  EXPECT_EQ(q.stats().fired, 0u);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_EQ(q.run_until(2.0, order), 1u);  // still usable afterwards
}

TEST(PendingSet, StatsTrackPeaksDisarmsAndFirings) {
  PendingSet q = armed_at(10, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  for (Key k = 0; k < 4; ++k) q.disarm(k);
  drain(q);
  const QueueStats s = q.stats();
  EXPECT_EQ(s.scheduled, 10u);
  EXPECT_EQ(s.cancelled, 4u);
  EXPECT_EQ(s.fired, 6u);
  EXPECT_EQ(s.peak_size, 10u);  // a high-water mark, not the current size
}

TEST(PendingSet, StatsMergeAddsCountsAndMaxesPeaks) {
  QueueStats a{10, 8, 2, 100};
  a.merge(QueueStats{1, 1, 1, 7});
  EXPECT_EQ(a.scheduled, 11u);
  EXPECT_EQ(a.fired, 9u);
  EXPECT_EQ(a.cancelled, 3u);
  EXPECT_EQ(a.peak_size, 100u);
}

TEST(PendingSet, ManyKeysFireInTimeThenArmingOrder) {
  const auto time_of = [](Key k) { return static_cast<double>((k * 7919) % 1000); };
  PendingSet q(20000);
  for (Key k = 0; k < 20000; ++k) q.arm(k, time_of(k));
  Order order;
  drain(q, order);
  ASSERT_EQ(order.keys.size(), 20000u);
  for (std::size_t i = 1; i < order.keys.size(); ++i) {
    const Key a = order.keys[i - 1], b = order.keys[i];
    ASSERT_TRUE(time_of(a) < time_of(b) || (time_of(a) == time_of(b) && a < b)) << i;
  }
}

TEST(PendingSet, FireHookRunsAfterEveryNthEvent) {
  PendingSet q = armed_at(1, {0.0});
  std::vector<std::uint64_t> hooked;
  q.set_fire_hook(3, [&] { hooked.push_back(q.stats().fired); });
  drain(q, [&](Key k) {
    if (q.stats().fired < 10) q.arm_in(k, 1.0);
  });
  EXPECT_EQ(hooked, (std::vector<std::uint64_t>{3, 6, 9}));
}

/// Reference model of the contract: a map ordered by (time, arming
/// sequence) plus each key's entry, slow but plainly right.
struct ReferenceSet {
  using Entry = std::pair<double, std::uint64_t>;
  std::map<Entry, Key> pending;
  std::vector<std::optional<Entry>> armed;
  std::uint64_t next_seq = 0;
  double now = 0.0;
  QueueStats stats;
  std::vector<std::pair<Key, double>> trace;  ///< (key, time) per firing

  explicit ReferenceSet(std::size_t keys) : armed(keys) {}
  void arm(Key k, double t) {
    armed[k] = Entry{t, next_seq++};
    pending.emplace(*armed[k], k);
    ++stats.scheduled;
    stats.peak_size = std::max(stats.peak_size, pending.size());
  }
  bool disarm(Key k) {
    if (!armed[k]) return false;
    pending.erase(*armed[k]);
    armed[k].reset();
    ++stats.cancelled;
    return true;
  }
  void fire_next() {
    const auto it = pending.begin();
    now = it->first.first;
    trace.emplace_back(it->second, now);
    armed[it->second].reset();
    pending.erase(it);
    ++stats.fired;
  }
  std::uint64_t run_until(double t_end) {
    std::uint64_t n = 0;
    for (; !pending.empty() && pending.begin()->first.first <= t_end; ++n) fire_next();
    now = std::max(now, t_end);
    return n;
  }
  std::uint64_t drain() {
    std::uint64_t n = 0;
    for (; !pending.empty(); ++n) fire_next();
    return n;
  }
};

/// A PendingSet and the reference driven in lockstep: each call goes to
/// both and their answers must agree.  Arming an armed key must throw and
/// change nothing.
struct Lockstep {
  PendingSet real;
  ReferenceSet ref;
  std::vector<std::pair<Key, double>> trace;

  explicit Lockstep(std::size_t keys) : real(keys), ref(keys) {}
  auto recorder() {
    return [this](Key k) { trace.emplace_back(k, real.now()); };
  }
  void arm(Key k, double t) {
    if (ref.armed[k]) {
      EXPECT_THROW(real.arm(k, t), std::logic_error);
      return;
    }
    real.arm(k, t);
    ref.arm(k, t);
  }
  void disarm(Key k) { EXPECT_EQ(real.disarm(k), ref.disarm(k)); }
  void run_until(double t) { EXPECT_EQ(real.run_until(t, recorder()), ref.run_until(t)); }
  void drain() { EXPECT_EQ(::drain(real, recorder()), ref.drain()); }
  void expect_agree() const {
    EXPECT_EQ(trace, ref.trace);
    EXPECT_EQ(real.now(), ref.now);
    EXPECT_EQ(real.size(), ref.pending.size());
    const QueueStats s = real.stats();
    EXPECT_EQ(s.scheduled, ref.stats.scheduled);
    EXPECT_EQ(s.fired, ref.stats.fired);
    EXPECT_EQ(s.cancelled, ref.stats.cancelled);
    EXPECT_EQ(s.peak_size, ref.stats.peak_size);
  }
};

/// Replays one seeded random script over 64 keys: arm a random key at a
/// random time (sometimes quantized to force exact ties, sometimes flung
/// 1e7 into the future), disarm a random key (possibly fired or never
/// armed), or run_until a random intermediate horizon.  With `resave`,
/// every 500th operation swaps the set for one restored from its snapshot.
void run_random_script(std::uint64_t seed, bool quantize, bool resave = false) {
  constexpr std::size_t kKeys = 64;
  std::mt19937_64 gen(seed);
  Lockstep s(kKeys);
  std::uniform_real_distribution<double> span(0.0, 1000.0);
  std::uniform_int_distribution<int> op(0, 9);
  std::uniform_int_distribution<Key> pick(0, kKeys - 1);
  double horizon = 0.0;
  for (int i = 0; i < 4000; ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    if (resave && i % 500 == 499) {
      StateWriter w;
      s.real.save_state(w);
      const std::string payload = w.take();
      PendingSet fresh(kKeys);
      StateReader r(payload);
      fresh.restore_state(r);
      r.expect_end();
      s.real = std::move(fresh);
    }
    const int kind = op(gen);
    const Key k = pick(gen);
    if (kind < 5) {
      double t = s.ref.now + (quantize ? static_cast<int>(span(gen)) % 32 : span(gen));
      if (op(gen) == 0) t += 1e7;
      s.arm(k, t);
    } else if (kind < 8) {
      s.disarm(k);
    } else {
      horizon += span(gen) * 0.5;
      s.run_until(horizon);
    }
  }
  s.drain();
  s.expect_agree();
}

TEST(PendingSet, RandomScriptsMatchReference) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 20260808ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_script(seed, /*quantize=*/false);
  }
}

TEST(PendingSet, QuantizedTieScriptsMatchReference) {
  // Integer-quantized times force many exact time ties, so the order rests
  // entirely on the arming-sequence tie-break.
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_script(seed, /*quantize=*/true);
  }
}

TEST(PendingSet, RandomScriptsSurviveSaveAndRestore) {
  // A set restored from its snapshot continues exactly where the saved one
  // would have: same fire order, clock and counters.
  for (const std::uint64_t seed : {4ULL, 14ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_script(seed, /*quantize=*/seed > 10, /*resave=*/true);
  }
}

TEST(PendingSet, DisarmHeavyChurnMatchesReference) {
  // The failure-timer pattern: key 0 is a far-future timer disarmed and
  // re-armed over and over, with short events on 32 other keys firing in
  // between.
  std::mt19937_64 gen(7);
  Lockstep s(33);
  std::uniform_real_distribution<double> far(1e3, 1e6);
  std::uniform_real_distribution<double> near(0.0, 20.0);
  for (int i = 0; i < 20000; ++i) {
    s.disarm(0);
    s.arm(0, s.ref.now + far(gen));
    if (i % 10 == 0) {
      const Key k = 1 + static_cast<Key>((i / 10) % 32);
      s.disarm(k);
      s.arm(k, s.ref.now + near(gen));
    }
    if (i % 100 == 0) s.run_until(s.ref.now + 5.0);
  }
  s.drain();
  s.expect_agree();
}

TEST(PendingSet, FireBudgetStopsAtExactlyTheBudget) {
  // The watchdog throws before firing event budget + 1: exactly `budget`
  // events have run, in order, and the rest stay armed for a caller that
  // lifts the cap.
  for (const std::uint64_t budget : {1ULL, 7ULL, 33ULL}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    Lockstep s(64);
    s.real.set_fire_budget(budget);
    std::mt19937_64 gen(99 + budget);
    std::uniform_real_distribution<double> span(0.0, 100.0);
    for (Key k = 0; k < 64; ++k) s.arm(k, span(gen));
    try {
      (void)drain(s.real, s.recorder());
      ADD_FAILURE() << "fire budget never tripped";
    } catch (const EventBudgetExceeded& e) {
      EXPECT_EQ(e.budget(), budget);
    }
    for (std::uint64_t i = 0; i < budget; ++i) s.ref.fire_next();
    s.expect_agree();
    s.real.set_fire_budget(0);
    s.drain();
    s.expect_agree();
  }
}

TEST(PendingSet, SelfRearmingChainsInterleaveByArmingOrder) {
  // Two keys that re-arm themselves while firing, with periods 3 and 7.5:
  // they meet at every multiple of 15.  At t = 0 both were armed up front,
  // a first; at each later meeting b was armed first (b fired at t - 7.5,
  // a at t - 3), so b fires first.
  PendingSet q = armed_at(2, {0.0, 0.0});
  const double period[2] = {3.0, 7.5};
  const int count[2] = {40, 16};
  int fired_of[2] = {0, 0};
  std::vector<std::pair<char, double>> fired;
  const auto fire = [&](Key k) {
    fired.emplace_back(static_cast<char>('a' + k), q.now());
    if (++fired_of[k] < count[k]) q.arm_in(k, period[k]);
  };
  EXPECT_EQ(q.run_until(130.0, fire), 56u);
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

// --- snapshot ----------------------------------------------------------------

/// A set over 8 keys part-way through a run: at t = 26, keys 6 (t = 45),
/// 4 and 7 (both t = 50, 4 armed first) are armed, with seven armings, one
/// disarm and three firings behind them.
PendingSet mid_run() {
  PendingSet q = armed_at(8, {10.0, 20.0, 30.0});
  q.arm(4, 50.0);
  q.disarm(2);
  q.run_until(15.0, [&q](Key) { q.arm_in(6, 35.0); });  // key 0 fires
  q.arm(0, 25.0);
  q.arm(7, 50.0);
  q.run_until(26.0, [](Key) {});  // keys 1 and 0 fire
  return q;
}

std::string saved(const PendingSet& q) {
  StateWriter w;
  q.save_state(w);
  return w.take();
}

/// `payload` restored into a fresh set over `keys` keys.
PendingSet restored(const std::string& payload, std::size_t keys = 8) {
  PendingSet q(keys);
  StateReader r(payload);
  q.restore_state(r);
  r.expect_end();
  return q;
}

SnapshotFault restore_fault(const std::string& payload, std::size_t keys = 8) {
  try {
    (void)restored(payload, keys);
  } catch (const SnapshotError& e) {
    return e.fault();
  }
  ADD_FAILURE() << "restore did not throw SnapshotError";
  return SnapshotFault::kIo;
}

// Layout: clock, four counters (scheduled, fired, cancelled, live peak),
// then (time, seq) per key.
constexpr std::size_t key_at(Key k) { return 5 * 8 + 16 * k; }

void put_u64(std::string& s, std::size_t at, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) s[at + b] = static_cast<char>((v >> (8 * b)) & 0xFF);
}
void put_f64(std::string& s, std::size_t at, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof d);
  put_u64(s, at, bits);
}

TEST(PendingSet, SaveRestoreContinuesIdentically) {
  PendingSet original = mid_run();
  ASSERT_EQ(original.size(), 3u);
  ASSERT_EQ(original.stats().scheduled, 7u);
  const std::string payload = saved(original);
  PendingSet copy = restored(payload);
  EXPECT_EQ(saved(copy), payload);
  // A key armed after the restore ties with key 6 and fires after it.
  Order a, b;
  original.arm(3, 45.0);
  copy.arm(3, 45.0);
  drain(original, a);
  drain(copy, b);
  EXPECT_EQ(a.keys, (Keys{6, 3, 4, 7}));
  EXPECT_EQ(b.keys, a.keys);
  EXPECT_EQ(saved(copy), saved(original));
  // Restore needs a set that has never armed a key.
  PendingSet used = armed_at(8, {1.0});
  StateReader r(payload);
  EXPECT_THROW(used.restore_state(r), std::logic_error);
}

TEST(PendingSet, PristineSetRoundTrips) {
  const std::string payload = saved(PendingSet(3));
  EXPECT_EQ(payload.size(), key_at(3));
  PendingSet copy = restored(payload, 3);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(saved(copy), payload);
}

TEST(PendingSet, FireBudgetAndHookAreNotState) {
  // The budget and the hook belong to the caller: a restored set starts
  // without them, and the caller sets them again.
  PendingSet original = mid_run();
  original.set_fire_budget(1);
  original.set_fire_hook(1, [] {});
  const std::string payload = saved(original);
  PendingSet unlimited = restored(payload);
  EXPECT_EQ(drain(unlimited), 3u);
  PendingSet capped = restored(payload);
  capped.set_fire_budget(4);  // three fired before the save
  EXPECT_THROW(drain(capped), EventBudgetExceeded);
  EXPECT_EQ(capped.stats().fired, 4u);
}

TEST(PendingSet, RestoreNeedsTheSameNumberOfKeys) {
  // The payload holds one entry per key and no count: a set with more keys
  // runs out of bytes, and one with fewer finds fewer armed keys than the
  // counters account for.
  const std::string payload = saved(mid_run());
  EXPECT_EQ(restore_fault(payload, 9), SnapshotFault::kTruncated);
  EXPECT_EQ(restore_fault(payload, 7), SnapshotFault::kCorrupt);
}

TEST(PendingSet, RestoreRejectsCorruptState) {
  const PendingSet q = mid_run();
  const std::string good = saved(q);
  ASSERT_EQ(good.size(), key_at(8));
  const auto mutated = [&good](const std::function<void(std::string&)>& edit) {
    std::string bad = good;
    edit(bad);
    return bad;
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"nan clock", mutated([](std::string& s) { put_f64(s, 0, kNan); })},
      {"time before the clock",
       mutated([&](std::string& s) { put_f64(s, key_at(4), q.now() - 1.0); })},
      {"seq at the counter",
       mutated([&](std::string& s) { put_u64(s, key_at(4) + 8, q.stats().scheduled); })},
      {"duplicate seq",
       mutated([](std::string& s) { std::memcpy(&s[key_at(7) + 8], &s[key_at(4) + 8], 8); })},
      {"unarmed key with a seq", mutated([](std::string& s) { put_u64(s, key_at(2) + 8, 1); })},
      {"counters do not add up", mutated([](std::string& s) { put_u64(s, 16, 0); })},
      {"live peak below live", mutated([](std::string& s) { put_u64(s, 32, 1); })},
  };
  for (const auto& [name, payload] : cases) {
    SCOPED_TRACE(name);
    EXPECT_EQ(restore_fault(payload), SnapshotFault::kCorrupt);
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_EQ(restore_fault(good.substr(0, len)), SnapshotFault::kTruncated) << len;
  }
}

}  // namespace
