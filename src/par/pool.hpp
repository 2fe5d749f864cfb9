// Deterministic parallel execution: a lazily-initialized global thread
// pool sized by the TITANREL_THREADS environment variable (default:
// hardware_concurrency; 1 forces fully serial execution).
//
// The pool exists to make the embarrassingly-parallel parts of the study
// pipeline scale with cores *without* giving up bit-reproducibility.  The
// contract every caller must honor: a task may only write state owned by
// its own index (its slot in an output vector, its own GpuCard, ...), and
// any randomness must come from an Rng forked per index.  Under that
// contract the primitives in parallel.hpp produce byte-identical results
// at 1 thread, N threads, or any interleaving -- see DESIGN.md,
// "Parallel execution & RNG stream discipline".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace titan::par {

/// Parse a TITANREL_THREADS-style value.  Returns the thread count, or 0
/// when the value is null, empty, non-numeric, or zero (callers fall back
/// to hardware_concurrency).  Values are capped at 4096.
[[nodiscard]] std::size_t parse_thread_env(const char* value) noexcept;

/// The pool width the environment asks for: TITANREL_THREADS when set and
/// valid, otherwise hardware_concurrency (never less than 1).
[[nodiscard]] std::size_t default_thread_count();

/// A persistent work-sharing pool.  One job runs at a time; the calling
/// thread participates in executing tasks, so a pool of width W spawns
/// W - 1 worker threads (width 1 spawns none and runs everything inline).
///
/// Exceptions thrown by tasks are captured and the one with the *lowest
/// task index* is rethrown from run() once every task has finished --
/// deterministic regardless of which thread hit it first.
class ThreadPool {
 public:
  /// The process-wide pool, created on first use from default_thread_count().
  [[nodiscard]] static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured width (worker threads + the calling thread).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Re-size the pool (joins current workers, spawns new ones).  Must not
  /// be called while a run() is in flight.
  void resize(std::size_t threads);

  /// Execute body(0..tasks-1), blocking until all tasks completed.  Tasks
  /// are claimed dynamically, so `body` must be safe to call concurrently
  /// and must not care about claim order.  Calls from inside a task run
  /// inline and serial (no nested fan-out, no deadlock).
  void run(std::size_t tasks, const std::function<void(std::size_t)>& body);

  /// True on a pool worker and on a caller while it executes tasks: the
  /// threads where run() executes inline.
  [[nodiscard]] static bool in_task() noexcept;

 private:
  explicit ThreadPool(std::size_t threads);

  void start(std::size_t threads);
  void stop();
  void worker_loop();
  void execute_current();

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex run_mu_;  ///< serializes run()/resize() callers

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: a new job or stop
  std::condition_variable done_cv_;  ///< caller: tasks drained / workers idle
  bool stop_ = false;
  std::uint64_t job_id_ = 0;         ///< bumped per run(); workers latch it
  std::size_t active_workers_ = 0;   ///< workers inside execute_current()

  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t tasks_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> completed_{0};
  std::exception_ptr error_;
  std::size_t error_index_ = 0;
};

/// Resize the global pool (tests and benches use this to sweep widths).
void set_threads(std::size_t threads);

/// Width of the global pool.
[[nodiscard]] std::size_t thread_count();

}  // namespace titan::par
