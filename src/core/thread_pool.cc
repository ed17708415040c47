#include "src/core/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

namespace ckptsim {

std::size_t ExecSpec::resolve() const {
  if (jobs > 0) return jobs;
  if (const char* env = std::getenv("CKPTSIM_JOBS")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

WorkerPool::Lane::Lane(WorkerPool& pool, int priority) : pool_(pool), priority_(priority) {
  const std::lock_guard<std::mutex> lock(pool_.mu_);
  pool_.lanes_.push_back(this);
}

WorkerPool::Lane::~Lane() {
  drop();
  std::unique_lock<std::mutex> lock(pool_.mu_);
  idle_.wait(lock, [this] { return running_ == 0; });
  pool_.lanes_.erase(std::find(pool_.lanes_.begin(), pool_.lanes_.end(), this));
}

void WorkerPool::Lane::submit(Task task) {
  if (!task) throw std::invalid_argument("WorkerPool::Lane::submit: empty task");
  {
    const std::lock_guard<std::mutex> lock(pool_.mu_);
    queue_.push_back(std::move(task));
  }
  pool_.work_cv_.notify_one();
}

std::size_t WorkerPool::Lane::drop() {
  std::deque<Task> dropped;
  {
    const std::lock_guard<std::mutex> lock(pool_.mu_);
    dropped.swap(queue_);
    if (running_ == 0) idle_.notify_all();
  }
  // The dropped tasks are destroyed on return, outside the lock: their
  // captures may run destructors that take it.
  return dropped.size();
}

void WorkerPool::Lane::wait() {
  std::unique_lock<std::mutex> lock(pool_.mu_);
  idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
  if (error_) {
    const std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

WorkerPool::WorkerPool(std::size_t threads) {
  threads = std::max<std::size_t>(threads, 1);
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { work(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

WorkerPool::Lane* WorkerPool::pick() {
  // Highest priority first; among equals the least recently served, so
  // lanes of one priority share the workers instead of running in turn.
  Lane* best = nullptr;
  for (Lane* lane : lanes_) {
    if (lane->queue_.empty()) continue;
    if (best == nullptr || lane->priority_ > best->priority_ ||
        (lane->priority_ == best->priority_ && lane->last_served_ < best->last_served_)) {
      best = lane;
    }
  }
  return best;
}

void WorkerPool::work(std::size_t worker) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Lane* lane = nullptr;
    work_cv_.wait(lock, [&] { return (lane = pick()) != nullptr || stop_; });
    if (lane == nullptr) return;  // stopping, and nothing queued anywhere
    Task task = std::move(lane->queue_.front());
    lane->queue_.pop_front();
    ++lane->running_;
    lane->last_served_ = ++serve_seq_;
    lock.unlock();
    try {
      task(worker);
    } catch (...) {
      lane->drop();  // the lane lives while one of its tasks runs
      const std::lock_guard<std::mutex> relock(mu_);
      if (!lane->error_) lane->error_ = std::current_exception();
    }
    lock.lock();
    if (--lane->running_ == 0 && lane->queue_.empty()) lane->idle_.notify_all();
    // That was the pool's last touch of `lane`.  Only now release the
    // task's captures, which may own the lane, outside the lock that the
    // lane's destructor takes.
    lock.unlock();
    task = nullptr;
    lock.lock();
  }
}

void parallel_for_workers(std::size_t jobs, std::size_t count,
                          const std::function<void(std::size_t, std::size_t)>& body) {
  if (!body) throw std::invalid_argument("parallel_for_workers: empty body");
  const std::size_t workers = std::min(std::max<std::size_t>(jobs, 1), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  WorkerPool pool(workers);
  WorkerPool::Lane lane(pool);
  for (std::size_t i = 0; i < count; ++i) {
    lane.submit([&body, i](std::size_t worker) { body(worker, i); });
  }
  lane.wait();
}

}  // namespace ckptsim
