#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ckptsim {

/// Fixed worker threads serving *lanes*: a worker takes the next task of
/// the highest-priority lane with queued work, the least recently served
/// among lanes of equal priority, first in first out within a lane.  The
/// replication driver runs a call on one lane; the campaign server gives
/// every campaign a lane of its one pool.  Scheduling never reaches
/// results: callers index their outputs.
class WorkerPool {
 public:
  /// A task receives the index (< size()) of the thread running it, which
  /// per-worker shards (src/obs) key on.
  using Task = std::function<void(std::size_t worker)>;

  /// One stream of tasks at one priority.  A lane must not outlive its
  /// pool.  The pool's last touch of a lane comes before it releases the
  /// task that ran on it, so a task's captures may own the lane: the last
  /// one to finish then destroys it.
  class Lane {
   public:
    explicit Lane(WorkerPool& pool, int priority = 0);
    /// Drops what is queued and waits for what runs.
    ~Lane();

    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    [[nodiscard]] WorkerPool& pool() const noexcept { return pool_; }

    /// Queue a task.  Throws std::invalid_argument on an empty task.
    void submit(Task task);

    /// Discard the queued tasks, destroying them on this thread; returns
    /// how many.  Running tasks finish.
    std::size_t drop();

    /// Block until nothing of the lane is queued or running, then rethrow
    /// the first exception a task threw since the last wait().  A throwing
    /// task drops the lane's queue.
    void wait();

   private:
    friend class WorkerPool;
    WorkerPool& pool_;
    const int priority_;
    std::deque<Task> queue_;         ///< guarded by pool_.mu_, as is all below
    std::size_t running_ = 0;
    std::uint64_t last_served_ = 0;  ///< round-robin recency stamp
    std::exception_ptr error_;
    std::condition_variable idle_;   ///< signals wait(): queue empty, none running
  };

  /// Spawns `threads` workers (clamped to >= 1).
  explicit WorkerPool(std::size_t threads);
  /// Runs every queued task, then joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

 private:
  void work(std::size_t worker);
  /// The lane to serve next, or null when nothing is queued.  Caller holds mu_.
  Lane* pick();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: a task queued, or stopping
  std::vector<Lane*> lanes_;         ///< in construction order
  std::uint64_t serve_seq_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Execution controls shared by every multi-replication entry point
/// (`run_model`, `sweep`, `san::Study::run`).  Results are aggregated in
/// replication-index order, so any `jobs` value — including the auto
/// default — produces bit-identical output to the serial path.
struct ExecSpec {
  /// Worker threads for independent replications / sweep points.
  /// 0 = auto: the `CKPTSIM_JOBS` environment variable when set to a
  /// positive integer, otherwise `std::thread::hardware_concurrency()`.
  std::size_t jobs = 0;

  /// A lane of a pool the caller already runs (the campaign server's), or
  /// null: the driver then makes its own pool of `jobs` threads for the
  /// call.  With a lane `jobs` is not read.  Never set it to a lane of the
  /// pool whose task makes the call: a waiting task can starve the pool.
  WorkerPool::Lane* lane = nullptr;

  /// The concrete thread count (>= 1) this spec resolves to.
  [[nodiscard]] std::size_t resolve() const;
};

/// Run `body(worker, i)` for every i in [0, count) on a pool of up to
/// `jobs` threads (jobs <= 1 runs inline on the calling thread, as worker
/// 0).  Blocks until all iterations finish.  Each iteration writes only
/// its own index, so output order is the caller's responsibility and
/// determinism holds for any thread count; `worker` (< min(jobs, count))
/// keys per-worker shards.  The first exception thrown by `body` stops the
/// remaining iterations and is rethrown here.
void parallel_for_workers(std::size_t jobs, std::size_t count,
                          const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace ckptsim
