#include "par/pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace titan::par {

namespace {

/// True while the current thread is executing pool tasks; run() calls made
/// from such a thread execute inline to avoid self-deadlock.
thread_local bool tl_in_parallel = false;

constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kMaxThreads = 4096;

}  // namespace

std::size_t parse_thread_env(const char* value) noexcept {
  if (value == nullptr || *value == '\0') return 0;
  std::size_t n = 0;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 0;
    n = n * 10 + static_cast<std::size_t>(*p - '0');
    if (n > kMaxThreads) return kMaxThreads;
  }
  return n;
}

std::size_t default_thread_count() {
  const std::size_t env = parse_thread_env(std::getenv("TITANREL_THREADS"));
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool{default_thread_count()};
  return pool;
}

ThreadPool::ThreadPool(std::size_t threads) { start(threads); }

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::start(std::size_t threads) {
  threads_ = std::clamp<std::size_t>(threads, 1, kMaxThreads);
  stop_ = false;
  workers_.reserve(threads_ - 1);
  for (std::size_t w = 0; w + 1 < threads_; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::stop() {
  {
    const std::lock_guard<std::mutex> lock{mu_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

void ThreadPool::resize(std::size_t threads) {
  const std::lock_guard<std::mutex> run_lock{run_mu_};
  stop();
  start(threads);
}

void ThreadPool::worker_loop() {
  tl_in_parallel = true;  // nested run() calls from tasks stay inline
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock{mu_};
      work_cv_.wait(lock, [&] { return stop_ || job_id_ != seen; });
      if (stop_) return;
      seen = job_id_;
      ++active_workers_;
    }
    execute_current();
    {
      const std::lock_guard<std::mutex> lock{mu_};
      --active_workers_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::execute_current() {
  for (;;) {
    const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= tasks_) return;
    try {
      (*body_)(index);
    } catch (...) {
      const std::lock_guard<std::mutex> lock{mu_};
      if (index < error_index_) {
        error_index_ = index;
        error_ = std::current_exception();
      }
    }
    if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == tasks_) {
      // Last task out: wake the caller blocked in run().
      { const std::lock_guard<std::mutex> lock{mu_}; }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(std::size_t tasks, const std::function<void(std::size_t)>& body) {
  if (tasks == 0) return;
  if (threads_ <= 1 || tl_in_parallel || tasks == 1) {
    for (std::size_t i = 0; i < tasks; ++i) body(i);
    return;
  }
  const std::lock_guard<std::mutex> run_lock{run_mu_};
  {
    std::unique_lock<std::mutex> lock{mu_};
    // Stragglers from the previous job must be out before fields are reused.
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    body_ = &body;
    tasks_ = tasks;
    next_.store(0, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    error_index_ = kNoError;
    ++job_id_;
  }
  work_cv_.notify_all();
  tl_in_parallel = true;
  execute_current();
  tl_in_parallel = false;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock{mu_};
    done_cv_.wait(lock, [&] { return completed_.load(std::memory_order_acquire) == tasks_; });
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::in_task() noexcept { return tl_in_parallel; }

void set_threads(std::size_t threads) { ThreadPool::instance().resize(threads); }

std::size_t thread_count() { return ThreadPool::instance().threads(); }

}  // namespace titan::par
