#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/thread_pool.h"

namespace {

using ckptsim::ExecSpec;
using ckptsim::parallel_for_workers;
using ckptsim::WorkerPool;
using Lane = WorkerPool::Lane;

/// A task that holds its worker until open(): work queued behind it waits,
/// so a test can set up the queues before anything of them runs.
class Gate {
 public:
  [[nodiscard]] WorkerPool::Task task() {
    return [this](std::size_t) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    };
  }
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Task names in the order the pool ran them.
class Order {
 public:
  [[nodiscard]] WorkerPool::Task task(std::string name) {
    return [this, name](std::size_t) {
      const std::lock_guard<std::mutex> lock(mu_);
      names_.push_back(name);
    };
  }
  [[nodiscard]] std::vector<std::string> names() {
    const std::lock_guard<std::mutex> lock(mu_);
    return names_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> names_;
};

TEST(WorkerPool, ZeroThreadsClampsToOne) {
  const WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(WorkerPool, WaitWithNoTasksReturnsImmediately) {
  WorkerPool pool(2);
  Lane lane(pool);
  lane.wait();  // must not deadlock
}

TEST(WorkerPool, RunsEverySubmittedTask) {
  WorkerPool pool(4);
  Lane lane(pool);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    lane.submit([&count](std::size_t) { count.fetch_add(1); });
  }
  lane.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPool, RejectsEmptyTask) {
  WorkerPool pool(1);
  Lane lane(pool);
  EXPECT_THROW(lane.submit(nullptr), std::invalid_argument);
}

TEST(WorkerPool, FifoWithinALane) {
  WorkerPool pool(1);
  Lane lane(pool);
  Order order;
  std::vector<std::string> expected;
  for (int i = 0; i < 10; ++i) {
    expected.push_back(std::to_string(i));
    lane.submit(order.task(expected.back()));
  }
  lane.wait();
  EXPECT_EQ(order.names(), expected);
}

TEST(WorkerPool, ServesPriorityFirstThenLeastRecentlyServed) {
  WorkerPool pool(1);
  Lane gate_lane(pool, 9);
  Gate gate;
  gate_lane.submit(gate.task());
  Lane a(pool, 0);
  Lane b(pool, 0);
  Lane c(pool, 5);
  Order order;
  for (const char* name : {"a0", "a1", "a2"}) a.submit(order.task(name));
  for (const char* name : {"b0", "b1"}) b.submit(order.task(name));
  for (const char* name : {"c0", "c1"}) c.submit(order.task(name));
  gate.open();
  for (Lane* lane : {&a, &b, &c, &gate_lane}) lane->wait();
  // c outranks a and b; a and b, of one priority, take turns, FIFO each.
  const std::vector<std::string> expected = {"c0", "c1", "a0", "b0", "a1", "b1", "a2"};
  EXPECT_EQ(order.names(), expected);
}

TEST(WorkerPool, DropDiscardsQueuedTasksAndCountsThem) {
  WorkerPool pool(1);
  Lane gate_lane(pool, 1);
  Gate gate;
  gate_lane.submit(gate.task());
  Lane lane(pool);
  std::atomic<int> ran{0};
  const auto token = std::make_shared<int>(0);
  for (int i = 0; i < 5; ++i) {
    lane.submit([&ran, token](std::size_t) { ran.fetch_add(1); });
  }
  EXPECT_EQ(token.use_count(), 6);
  EXPECT_EQ(lane.drop(), 5u);
  EXPECT_EQ(token.use_count(), 1);  // the dropped tasks are destroyed
  EXPECT_EQ(lane.drop(), 0u);
  gate.open();
  lane.wait();
  gate_lane.wait();
  EXPECT_EQ(ran.load(), 0);
}

TEST(WorkerPool, WaitRethrowsFirstExceptionAndDropsTheRest) {
  WorkerPool pool(1);
  Lane gate_lane(pool, 1);
  Gate gate;
  gate_lane.submit(gate.task());
  Lane lane(pool);
  std::atomic<int> ran{0};
  lane.submit([](std::size_t) { throw std::runtime_error("first"); });
  lane.submit([](std::size_t) { throw std::runtime_error("second"); });
  for (int i = 0; i < 3; ++i) lane.submit([&ran](std::size_t) { ran.fetch_add(1); });
  gate.open();
  try {
    lane.wait();
    ADD_FAILURE() << "wait() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(ran.load(), 0);
  // The error is cleared: the lane stays usable.
  lane.submit([&ran](std::size_t) { ran.fetch_add(1); });
  lane.wait();
  EXPECT_EQ(ran.load(), 1);
  gate_lane.wait();
}

TEST(WorkerPool, WorkerIndicesAreBelowSize) {
  WorkerPool pool(3);
  Lane lane(pool);
  std::vector<std::atomic<int>> seen(pool.size());
  std::atomic<int> out_of_range{0};
  for (int i = 0; i < 300; ++i) {
    lane.submit([&](std::size_t worker) {
      if (worker >= seen.size()) {
        out_of_range.fetch_add(1);
        return;
      }
      seen[worker].fetch_add(1);
    });
  }
  lane.wait();
  EXPECT_EQ(out_of_range.load(), 0);
  int total = 0;
  for (const auto& s : seen) total += s.load();
  EXPECT_EQ(total, 300);
}

TEST(WorkerPool, DestructorRunsWhatIsQueued) {
  std::atomic<int> count{0};
  {
    WorkerPool pool(2);
    const auto lane = std::make_shared<Lane>(pool);
    for (int i = 0; i < 20; ++i) {
      lane->submit([lane, &count](std::size_t) { count.fetch_add(1); });
    }
  }  // the lane lives on in its queued tasks, which the pool still runs
  EXPECT_EQ(count.load(), 20);
}

TEST(WorkerPool, LaneOwnedByItsTasksIsDestroyedByTheLast) {
  // A campaign owns its lane and its tasks own the campaign, so the last
  // task to finish destroys the lane.  The pool must be done with the lane
  // by then; a thread sanitizer flags any touch after it.
  struct Signal {
    std::atomic<int>* destroyed;
    ~Signal() { destroyed->fetch_add(1); }
  };
  struct Owner {
    Owner(WorkerPool& pool, std::atomic<int>* destroyed) : signal{destroyed}, lane(pool) {}
    Signal signal;  // destroyed after the lane
    Lane lane;
  };
  WorkerPool pool(4);
  std::atomic<int> destroyed{0};
  constexpr int kOwners = 200;
  for (int i = 0; i < kOwners; ++i) {
    const auto owner = std::make_shared<Owner>(pool, &destroyed);
    for (int t = 0; t < 4; ++t) owner->lane.submit([owner](std::size_t) {});
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (destroyed.load() < kOwners && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(destroyed.load(), kOwners);
}

TEST(ParallelForWorkers, ZeroCountIsNoOp) {
  int calls = 0;
  parallel_for_workers(4, 0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForWorkers, RejectsEmptyBody) {
  EXPECT_THROW(parallel_for_workers(2, 5, nullptr), std::invalid_argument);
}

TEST(ParallelForWorkers, SerialPathCoversEveryIndexInOrder) {
  std::vector<std::size_t> seen;
  parallel_for_workers(1, 7, [&](std::size_t worker, std::size_t i) {
    EXPECT_EQ(worker, 0u);
    seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ParallelForWorkers, ParallelPathCoversEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<int> bad_worker{0};
  parallel_for_workers(4, n, [&](std::size_t worker, std::size_t i) {
    if (worker >= 4) bad_worker.fetch_add(1);
    hits[i].fetch_add(1);
  });
  EXPECT_EQ(bad_worker.load(), 0);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelForWorkers, MoreJobsThanTasksStillCompletes) {
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  std::atomic<int> bad_worker{0};
  parallel_for_workers(16, 3, [&](std::size_t worker, std::size_t i) {
    if (worker >= 3) bad_worker.fetch_add(1);  // never wider than the work
    hits[i].fetch_add(1);
  });
  EXPECT_EQ(bad_worker.load(), 0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForWorkers, DispatchesConcurrently) {
  // Four 300 ms sleeps across four workers must overlap in wall-clock time
  // (serial execution would take 1.2 s).  Sleeps overlap even on a single
  // hardware thread, so this holds on any machine; the margin is generous
  // to tolerate loaded CI runners.
  const auto start = std::chrono::steady_clock::now();
  parallel_for_workers(4, 4, [](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 900);
}

TEST(ParallelForWorkers, BodyExceptionPropagates) {
  EXPECT_THROW(parallel_for_workers(4, 100,
                                    [](std::size_t, std::size_t i) {
                                      if (i == 17) throw std::runtime_error("bad index");
                                    }),
               std::runtime_error);
}

TEST(ExecSpec, ExplicitJobsWin) {
  ExecSpec spec;
  spec.jobs = 3;
  EXPECT_EQ(spec.resolve(), 3u);
}

TEST(ExecSpec, AutoResolvesToPositiveCount) {
  ExecSpec spec;  // jobs = 0 = auto
  EXPECT_GE(spec.resolve(), 1u);
}

TEST(ExecSpec, EnvFallbackWhenAuto) {
  ASSERT_EQ(setenv("CKPTSIM_JOBS", "7", 1), 0);
  ExecSpec spec;
  EXPECT_EQ(spec.resolve(), 7u);
  spec.jobs = 2;  // explicit beats env
  EXPECT_EQ(spec.resolve(), 2u);
  ASSERT_EQ(setenv("CKPTSIM_JOBS", "garbage", 1), 0);
  spec.jobs = 0;
  EXPECT_GE(spec.resolve(), 1u);  // unparsable env ignored
  unsetenv("CKPTSIM_JOBS");
}

}  // namespace
