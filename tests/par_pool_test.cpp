#include "par/parallel.hpp"
#include "par/pool.hpp"
#include "par/run_ahead.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace titan::par {
namespace {

/// Restores the default pool width when a test returns (tests mutate the
/// process-global pool).
struct ThreadsGuard {
  ThreadsGuard() = default;
  ~ThreadsGuard() { set_threads(default_thread_count()); }
};

TEST(ParseThreadEnv, AcceptsPositiveIntegers) {
  EXPECT_EQ(parse_thread_env("1"), 1U);
  EXPECT_EQ(parse_thread_env("4"), 4U);
  EXPECT_EQ(parse_thread_env("128"), 128U);
}

TEST(ParseThreadEnv, RejectsInvalidValues) {
  EXPECT_EQ(parse_thread_env(nullptr), 0U);
  EXPECT_EQ(parse_thread_env(""), 0U);
  EXPECT_EQ(parse_thread_env("0"), 0U);
  EXPECT_EQ(parse_thread_env("-3"), 0U);
  EXPECT_EQ(parse_thread_env("four"), 0U);
  EXPECT_EQ(parse_thread_env("4x"), 0U);
}

TEST(ParseThreadEnv, CapsAbsurdWidths) {
  EXPECT_EQ(parse_thread_env("99999999"), 4096U);
}

TEST(ThreadPool, SerialFallbackAtWidthOne) {
  ThreadsGuard guard;
  set_threads(1);
  EXPECT_EQ(thread_count(), 1U);
  std::uint64_t sum = 0;  // no atomic needed: width 1 runs inline
  parallel_for(0, 100, 7, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950U);
}

TEST(ThreadPool, ReusedAcrossManyRuns) {
  ThreadsGuard guard;
  set_threads(4);
  EXPECT_EQ(thread_count(), 4U);
  for (int rep = 0; rep < 100; ++rep) {
    std::atomic<std::uint64_t> sum{0};
    parallel_for(0, 1000, 16, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 499500U);
  }
}

TEST(ThreadPool, LowestIndexExceptionPropagates) {
  ThreadsGuard guard;
  set_threads(4);
  // Several tasks throw; the one with the lowest index must win, so the
  // surfaced error is deterministic regardless of scheduling.
  try {
    parallel_for(0, 512, 1, [](std::size_t i) {
      if (i >= 100) throw std::runtime_error{std::to_string(i)};
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "100");
  }
  // The pool survives a throwing job.
  std::atomic<std::uint64_t> sum{0};
  parallel_for(0, 100, 4, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950U);
}

TEST(ParallelFor, GrainEdgeCases) {
  ThreadsGuard guard;
  set_threads(4);
  std::atomic<std::uint64_t> count{0};
  parallel_for(0, 0, 8, [&](std::size_t) { ++count; });  // empty range
  EXPECT_EQ(count.load(), 0U);
  parallel_for(5, 5, 8, [&](std::size_t) { ++count; });  // begin == end
  EXPECT_EQ(count.load(), 0U);
  parallel_for(0, 10, 0, [&](std::size_t) { ++count; });  // grain 0 -> 1
  EXPECT_EQ(count.load(), 10U);
  count = 0;
  parallel_for(0, 3, 1000, [&](std::size_t) { ++count; });  // grain > range
  EXPECT_EQ(count.load(), 3U);
  count = 0;
  parallel_for(7, 8, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 7U);
    ++count;
  });
  EXPECT_EQ(count.load(), 1U);
}

TEST(ParallelFor, NonZeroBeginCoversExactRange) {
  ThreadsGuard guard;
  set_threads(4);
  std::vector<std::atomic<int>> hits(50);
  parallel_for(10, 40, 3, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 40) ? 1 : 0) << i;
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadsGuard guard;
  set_threads(4);
  std::atomic<int> count{0};
  parallel_for(0, 8, 1, [&](std::size_t) {
    parallel_for(0, 8, 1, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ParallelMap, PreservesIndexOrder) {
  ThreadsGuard guard;
  set_threads(4);
  const auto squares =
      parallel_map(10, 200, 3, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 190U);
  for (std::size_t k = 0; k < squares.size(); ++k) {
    EXPECT_EQ(squares[k], (k + 10) * (k + 10));
  }
}

TEST(ParallelMapReduce, OrderedConcatenation) {
  ThreadsGuard guard;
  // String concatenation is associative but not commutative: the result
  // only comes out right if chunk partials are reduced in index order.
  const auto concat = [](std::size_t threads) {
    set_threads(threads);
    return parallel_map_reduce(
        0, 26, 4, std::string{},
        [](std::size_t i) { return std::string(1, static_cast<char>('a' + i)); },
        [](std::string acc, std::string piece) { return acc + piece; });
  };
  EXPECT_EQ(concat(1), "abcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(concat(4), "abcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(concat(8), "abcdefghijklmnopqrstuvwxyz");
}

TEST(ParallelMapReduce, EmptyRangeReturnsInit) {
  ThreadsGuard guard;
  set_threads(4);
  const auto value = parallel_map_reduce(
      3, 3, 1, 42, [](std::size_t) { return 1; },
      [](int acc, int x) { return acc + x; });
  EXPECT_EQ(value, 42);
}

TEST(ParallelMapReduce, SumMatchesSerial) {
  ThreadsGuard guard;
  set_threads(4);
  const auto sum = parallel_map_reduce(
      0, 10000, 64, std::uint64_t{0},
      [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      [](std::uint64_t acc, std::uint64_t x) { return acc + x; });
  EXPECT_EQ(sum, 49995000U);
}

using Block = std::vector<std::uint64_t>;

/// The sequence the run-ahead tests stream: block b holds b*kBlock ..
/// (b+1)*kBlock - 1, squared.
constexpr std::size_t kBlock = 64;

Block make_block(std::size_t b) {
  Block block(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    const std::uint64_t v = b * kBlock + i;
    block[i] = v * v;
  }
  return block;
}

Block serial_sequence(std::size_t blocks) {
  Block out;
  for (std::size_t b = 0; b < blocks; ++b) {
    const Block block = make_block(b);
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

/// Stream `blocks` blocks through run_ahead and return what the consumer
/// saw, in order.  `producer_pause` slows the producer down, so the
/// consumer outpaces it and waits on the handoff.
Block run_pipeline(std::size_t blocks, std::chrono::microseconds producer_pause) {
  Block seen;
  run_ahead<Block>(
      [&](Handoff<Block>& out) {
        for (std::size_t b = 0; b < blocks; ++b) {
          if (producer_pause.count() > 0) std::this_thread::sleep_for(producer_pause);
          out.push(make_block(b));
        }
      },
      [&](Handoff<Block>& in) {
        while (const auto block = in.pop()) seen.insert(seen.end(), block->begin(), block->end());
      });
  return seen;
}

TEST(RunAhead, MatchesSerialAtWidthsOneTwoFour) {
  ThreadsGuard guard;
  const Block expected = serial_sequence(200);
  for (const std::size_t width : {1U, 2U, 4U}) {
    set_threads(width);
    EXPECT_EQ(run_pipeline(200, std::chrono::microseconds{0}), expected) << "width " << width;
    EXPECT_EQ(run_pipeline(0, std::chrono::microseconds{0}), Block{}) << "width " << width;
  }
}

TEST(RunAhead, ConsumerOutpacingTheProducerWaits) {
  ThreadsGuard guard;
  const Block expected = serial_sequence(40);
  for (const std::size_t width : {1U, 2U, 4U}) {
    set_threads(width);
    EXPECT_EQ(run_pipeline(40, std::chrono::microseconds{200}), expected) << "width " << width;
  }
}

TEST(RunAhead, ProducerFinishesFirstAtWidthOneAndNested) {
  ThreadsGuard guard;
  const Block expected = serial_sequence(30);
  // Each pipeline notes whether its producer had returned before the
  // consumer's first pop: it must have, at width 1 and inside a task.
  const auto pipeline = [&](bool& producer_first) {
    bool produced = false;
    Block seen;
    run_ahead<Block>(
        [&](Handoff<Block>& out) {
          for (std::size_t b = 0; b < 30; ++b) out.push(make_block(b));
          produced = true;
        },
        [&](Handoff<Block>& in) {
          producer_first = produced;
          while (const auto block = in.pop()) {
            seen.insert(seen.end(), block->begin(), block->end());
          }
        });
    return seen;
  };
  set_threads(1);
  bool first = false;
  EXPECT_EQ(pipeline(first), expected);
  EXPECT_TRUE(first);

  set_threads(4);
  std::vector<Block> results(8);
  std::vector<char> firsts(8, 0);
  parallel_for(0, 8, 1, [&](std::size_t task) {
    bool task_first = false;
    results[task] = pipeline(task_first);
    firsts[task] = task_first ? 1 : 0;
  });
  for (std::size_t task = 0; task < 8; ++task) {
    EXPECT_EQ(results[task], expected) << "task " << task;
    EXPECT_EQ(firsts[task], 1) << "task " << task;
  }
}

TEST(RunAhead, ProducerExceptionPropagatesAndClosesTheHandoff) {
  ThreadsGuard guard;
  for (const std::size_t width : {1U, 2U, 4U}) {
    set_threads(width);
    std::size_t consumed = 0;
    try {
      run_ahead<Block>(
          [](Handoff<Block>& out) {
            for (std::size_t b = 0; b < 3; ++b) out.push(make_block(b));
            throw std::runtime_error{"producer"};
          },
          [&](Handoff<Block>& in) {
            while (in.pop()) ++consumed;
          });
      FAIL() << "expected an exception at width " << width;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "producer") << "width " << width;
    }
    // The consumer either never started (width 1) or drained what was
    // published and returned.
    EXPECT_TRUE(consumed == 0 || consumed == 3) << "width " << width;
  }
  // The pool survives.
  std::atomic<std::uint64_t> sum{0};
  parallel_for(0, 100, 4, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950U);
}

TEST(RunAhead, ConsumerExceptionPropagatesAfterTheProducerFinishes) {
  ThreadsGuard guard;
  for (const std::size_t width : {1U, 2U, 4U}) {
    set_threads(width);
    std::size_t produced = 0;
    try {
      run_ahead<Block>(
          [&](Handoff<Block>& out) {
            for (std::size_t b = 0; b < 50; ++b, ++produced) out.push(make_block(b));
          },
          [](Handoff<Block>& in) {
            (void)in.pop();
            throw std::logic_error{"consumer"};
          });
      FAIL() << "expected an exception at width " << width;
    } catch (const std::logic_error& error) {
      EXPECT_STREQ(error.what(), "consumer") << "width " << width;
    }
    // The producer never waits on the consumer, so it ran to the end.
    EXPECT_EQ(produced, 50U) << "width " << width;
  }
}

TEST(RunAhead, ProducerExceptionWinsOverTheConsumers) {
  ThreadsGuard guard;
  for (const std::size_t width : {1U, 2U, 4U}) {
    set_threads(width);
    try {
      run_ahead<Block>([](Handoff<Block>&) { throw std::runtime_error{"producer"}; },
                       [](Handoff<Block>& in) {
                         (void)in.pop();
                         throw std::runtime_error{"consumer"};
                       });
      FAIL() << "expected an exception at width " << width;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "producer") << "width " << width;
    }
  }
}

}  // namespace
}  // namespace titan::par
