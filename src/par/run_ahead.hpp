// A two-stage pipeline on top of the global ThreadPool: a producer runs
// ahead of its consumer and hands items over through a `Handoff`.
//
// The producer never waits: it pushes into an unbounded FIFO and returns
// when it is done.  The consumer blocks on a condition variable (never
// spins) until the producer has published the next item or the end.  At
// width >= 2 both stages have a thread of their own, so the producer
// always finishes and the consumer always wakes; at width 1, or when
// called from inside a pool task, the producer runs to completion before
// the consumer starts.  So nothing can deadlock, and the consumer sees the
// same items in the same order at every width: a consumer that only reads
// its items computes the same result at 1 thread and N.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>

#include "par/pool.hpp"

namespace titan::par {

/// The FIFO between a run-ahead producer and its consumer.
template <typename T>
class Handoff {
 public:
  /// Producer: publish `item`.  Never blocks beyond a short lock.
  void push(T item) {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
  }

  /// Producer: publish the end of the stream.  Idempotent; run_ahead
  /// closes the handoff when the producer returns or throws.
  void close() {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      closed_ = true;
    }
    ready_.notify_one();
  }

  /// Consumer: the next item, blocking until one is published; nullopt
  /// once the stream is closed and every item was taken.
  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock<std::mutex> lock{mu_};
    if (items_.empty() && !closed_) {
      ++waits_;
      ready_.wait(lock, [&] { return !items_.empty() || closed_; });
    }
    if (items_.empty()) return std::nullopt;
    std::optional<T> item{std::move(items_.front())};
    items_.pop_front();
    return item;
  }

  /// Consumer: how many pop() calls had to wait for the producer.
  [[nodiscard]] std::size_t waits() const {
    const std::lock_guard<std::mutex> lock{mu_};
    return waits_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
  std::size_t waits_ = 0;
};

/// Run `producer(handoff)` beside `consumer(handoff)` over a fresh
/// Handoff<T>.  At width >= 2 the two run as the two tasks of one pool
/// run, the producer first: the calling thread normally claims it and a
/// worker the consumer, so what the producer allocates to keep lands in
/// the caller's allocator arena, as it would without the pipeline.  At
/// width 1, or from inside a pool task, the producer runs to completion
/// first, then the consumer.  Exceptions propagate once
/// both stages have finished, the producer's first.  A producer that
/// throws still closes the handoff, so the consumer drains what was
/// published and returns.
template <typename T, typename Producer, typename Consumer>
void run_ahead(Producer&& producer, Consumer&& consumer) {
  Handoff<T> handoff;
  const auto produce = [&] {
    struct CloseOnExit {
      Handoff<T>& handoff;
      ~CloseOnExit() { handoff.close(); }
    } const close_on_exit{handoff};
    producer(handoff);
  };
  auto& pool = ThreadPool::instance();
  if (pool.threads() <= 1 || ThreadPool::in_task()) {
    produce();
    consumer(handoff);
    return;
  }
  std::exception_ptr produce_error;
  std::exception_ptr consume_error;
  pool.run(2, [&](std::size_t task) {
    try {
      if (task == 0) {
        produce();
      } else {
        consumer(handoff);
      }
    } catch (...) {
      (task == 0 ? produce_error : consume_error) = std::current_exception();
    }
  });
  if (produce_error) std::rethrow_exception(produce_error);
  if (consume_error) std::rethrow_exception(consume_error);
}

}  // namespace titan::par
