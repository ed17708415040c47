#include "src/core/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

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

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (!task) throw std::invalid_argument("ThreadPool::submit: empty task");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++unfinished_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return unfinished_ == 0; });
  if (first_error_) {
    std::exception_ptr err;
    std::swap(err, first_error_);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

std::size_t ThreadPool::suppressed_errors() const noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  return suppressed_errors_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      } else {
        ++suppressed_errors_;
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--unfinished_ == 0) all_done_.notify_all();
    }
  }
}

namespace {

/// The loop behind parallel_for_workers and parallel_for_indexed.
void for_each_index(std::size_t jobs, std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t workers = std::min(jobs == 0 ? std::size_t{1} : jobs, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  ThreadPool pool(workers);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> bail{false};
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([&, w] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        if (bail.load(std::memory_order_relaxed)) return;
        try {
          body(w, i);
        } catch (...) {
          bail.store(true, std::memory_order_relaxed);
          throw;  // captured by the pool; rethrown from wait()
        }
      }
    });
  }
  pool.wait();
}

}  // namespace

void parallel_for_workers(std::size_t jobs, std::size_t count,
                          const std::function<void(std::size_t, std::size_t)>& body) {
  if (!body) throw std::invalid_argument("parallel_for_workers: empty body");
  for_each_index(jobs, count, body);
}

void parallel_for_indexed(std::size_t jobs, std::size_t count,
                          const std::function<void(std::size_t)>& body) {
  if (!body) throw std::invalid_argument("parallel_for_indexed: empty body");
  for_each_index(jobs, count, [&body](std::size_t, std::size_t i) { body(i); });
}

}  // namespace ckptsim
