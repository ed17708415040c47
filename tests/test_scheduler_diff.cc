// Randomized differential test of the two EventQueue backends: a binary
// heap and a calendar queue driven through identical schedule / cancel /
// fire scripts must produce identical fire order, now() trajectories, and
// QueueStats.  The scripts are seeded std::mt19937_64 so failures replay
// exactly; they deliberately stress the calendar's weak spots — equal-time
// ties, cancel-heavy churn, far-future outliers parked in the overflow
// year, and window jumps across empty stretches.  One end-to-end check runs
// the SAN engine (the main user of the backend choice) through run_model.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/core/result_json.h"
#include "src/core/runner.h"
#include "src/model/parameters.h"
#include "src/obs/json.h"
#include "src/sim/event_queue.h"

namespace {

using ckptsim::sim::EventBudgetExceeded;
using ckptsim::sim::EventHandle;
using ckptsim::sim::EventQueue;
using ckptsim::sim::QueueStats;
using ckptsim::sim::SchedulerKind;

/// Drives one EventQueue through a scripted workload, recording every
/// firing as (event tag, fire time) so two backends can be diffed.
struct Harness {
  EventQueue q;
  std::vector<std::pair<int, double>> trace;
  std::vector<EventHandle> handles;

  explicit Harness(SchedulerKind kind) : q(kind) {}

  EventHandle schedule(int tag, double t) {
    return q.schedule(t, [this, tag] { trace.emplace_back(tag, q.now()); });
  }
};

void expect_same_behaviour(const Harness& heap, const Harness& cal) {
  ASSERT_EQ(heap.trace.size(), cal.trace.size());
  for (std::size_t i = 0; i < heap.trace.size(); ++i) {
    EXPECT_EQ(heap.trace[i].first, cal.trace[i].first) << "firing " << i;
    EXPECT_EQ(heap.trace[i].second, cal.trace[i].second) << "firing " << i;
  }
  EXPECT_EQ(heap.q.now(), cal.q.now());
  EXPECT_EQ(heap.q.size(), cal.q.size());
  EXPECT_EQ(heap.q.fired(), cal.q.fired());
  const QueueStats hs = heap.q.stats();
  const QueueStats cs = cal.q.stats();
  EXPECT_EQ(hs.scheduled, cs.scheduled);
  EXPECT_EQ(hs.fired, cs.fired);
  EXPECT_EQ(hs.cancelled, cs.cancelled);
  EXPECT_EQ(hs.peak_size, cs.peak_size);
  // compactions / peak_dead are backend bookkeeping and may differ.
}

/// Replays one random script on both backends.  Operations: schedule at a
/// random absolute time (sometimes quantized to force exact ties, sometimes
/// flung far into the future to exercise the overflow year), cancel a
/// random outstanding handle, or run_until a random intermediate horizon.
void run_random_script(std::uint64_t seed, bool quantize) {
  std::mt19937_64 gen(seed);
  Harness heap(SchedulerKind::kBinaryHeap);
  Harness cal(SchedulerKind::kCalendar);
  std::uniform_real_distribution<double> span(0.0, 1000.0);
  std::uniform_int_distribution<int> op(0, 9);
  int tag = 0;
  double horizon = 0.0;
  for (int i = 0; i < 4000; ++i) {
    switch (op(gen)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: {  // schedule (most common)
        double t = heap.q.now() + span(gen);
        if (quantize) t = heap.q.now() + static_cast<int>(span(gen)) % 32;
        if (op(gen) == 0) t += 1e7;  // park it in the overflow year
        ++tag;
        heap.handles.push_back(heap.schedule(tag, t));
        cal.handles.push_back(cal.schedule(tag, t));
        break;
      }
      case 5:
      case 6:
      case 7: {  // cancel a random handle (may be stale: must be a no-op)
        if (heap.handles.empty()) break;
        const std::size_t k =
            std::uniform_int_distribution<std::size_t>(0, heap.handles.size() - 1)(gen);
        const bool h = heap.q.cancel(heap.handles[k]);
        const bool c = cal.q.cancel(cal.handles[k]);
        EXPECT_EQ(h, c) << "cancel divergence at op " << i;
        break;
      }
      default: {  // advance
        horizon += span(gen) * 0.5;
        EXPECT_EQ(heap.q.run_until(horizon), cal.q.run_until(horizon)) << "op " << i;
        break;
      }
    }
  }
  // Drain everything that's left.
  EXPECT_EQ(heap.q.run_all(), cal.q.run_all());
  expect_same_behaviour(heap, cal);
}

TEST(SchedulerDiff, RandomScriptsAgree) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 20260808ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_script(seed, /*quantize=*/false);
  }
}

TEST(SchedulerDiff, QuantizedTieScriptsAgree) {
  // Integer-quantized times force many exact (time) ties, so ordering falls
  // entirely on the insertion-sequence tie-break in both backends.
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_script(seed, /*quantize=*/true);
  }
}

TEST(SchedulerDiff, CancelHeavyChurnAgrees) {
  // The DES failure-timer pattern: re-sample a far-future timer over and
  // over, cancelling the previous one.  Tombstones dominate; both backends
  // must agree on everything the user can observe.
  std::mt19937_64 gen(7);
  Harness heap(SchedulerKind::kBinaryHeap);
  Harness cal(SchedulerKind::kCalendar);
  std::uniform_real_distribution<double> far(1e3, 1e6);
  EventHandle ht;
  EventHandle ct;
  for (int i = 0; i < 20000; ++i) {
    heap.q.cancel(ht);
    cal.q.cancel(ct);
    const double t = heap.q.now() + far(gen);
    ht = heap.schedule(i, t);
    ct = cal.schedule(i, t);
    if (i % 100 == 0) {
      const double stop = heap.q.now() + 1.0;
      EXPECT_EQ(heap.q.run_until(stop), cal.q.run_until(stop));
    }
  }
  EXPECT_EQ(heap.q.run_all(), cal.q.run_all());
  expect_same_behaviour(heap, cal);
}

TEST(SchedulerDiff, FireBudgetTripsAtSameEvent) {
  for (const std::uint64_t budget : {1ULL, 7ULL, 33ULL}) {
    Harness heap(SchedulerKind::kBinaryHeap);
    Harness cal(SchedulerKind::kCalendar);
    heap.q.set_fire_budget(budget);
    cal.q.set_fire_budget(budget);
    std::mt19937_64 gen(99 + budget);
    std::uniform_real_distribution<double> span(0.0, 100.0);
    for (int tag = 0; tag < 64; ++tag) {
      const double t = span(gen);
      heap.schedule(tag, t);
      cal.schedule(tag, t);
    }
    EXPECT_THROW(heap.q.run_all(), EventBudgetExceeded);
    EXPECT_THROW(cal.q.run_all(), EventBudgetExceeded);
    ASSERT_EQ(heap.trace.size(), budget);
    expect_same_behaviour(heap, cal);
  }
}

TEST(SchedulerDiff, RecursiveSchedulingAgrees) {
  // Callbacks that schedule follow-ups while firing (the engines' pattern):
  // the chains interleave identically on both backends.
  // Two self-rescheduling chains with incommensurate periods.
  struct Chain {
    EventQueue* q;
    std::vector<double>* times;
    double period;
    int remaining;
    void fire() {
      times->push_back(q->now());
      if (--remaining > 0) {
        (void)q->schedule_in(period, [this] { fire(); });
      }
    }
  };
  const auto run_chains = [](SchedulerKind kind) {
    EventQueue q(kind);
    std::vector<double> times;
    Chain a{&q, &times, 3.0, 40};
    Chain b{&q, &times, 7.5, 16};
    (void)q.schedule(0.0, [&a] { a.fire(); });
    (void)q.schedule(0.0, [&b] { b.fire(); });
    (void)q.run_until(130.0);
    return times;
  };
  const std::vector<double> heap_times = run_chains(SchedulerKind::kBinaryHeap);
  ASSERT_FALSE(heap_times.empty());
  EXPECT_EQ(run_chains(SchedulerKind::kCalendar), heap_times);
}

TEST(SchedulerDiff, SanRunModelIsResultInvariant) {
  // End to end: the SAN engine's replications aggregate to the same bits
  // under either backend (canonical JSON renders every double %.17g).
  ckptsim::Parameters small;
  small.num_processors = 4096;
  ckptsim::RunSpec heap;
  heap.transient = 5.0 * ckptsim::units::kHour;
  heap.horizon = 30.0 * ckptsim::units::kHour;
  heap.replications = 3;
  heap.seed = 20260808;
  ckptsim::RunSpec cal = heap;
  cal.scheduler = SchedulerKind::kCalendar;
  ckptsim::obs::JsonWriter a, b;
  ckptsim::write_run_result(a, ckptsim::run_model(small, heap, ckptsim::EngineKind::kSan));
  ckptsim::write_run_result(b, ckptsim::run_model(small, cal, ckptsim::EngineKind::kSan));
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
