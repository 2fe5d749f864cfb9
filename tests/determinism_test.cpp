// The invariant that makes the parallel execution layer safe: a study is
// byte-identical across runs and across thread counts.  Every figure
// bench depends on this (fixed seeds, reproducible output), so the
// comparison below is exhaustive over everything run_study produces --
// events, SBE strikes, hot-spare actions, and the final nvidia-smi
// snapshot -- plus the console log rendered from the events at the same
// pool width.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/facility.hpp"
#include "logsim/console.hpp"
#include "par/pool.hpp"

namespace titan {
namespace {

/// A study plus its console log, both produced at one pool width.
struct Run {
  core::StudyDataset study;
  std::vector<std::string> console_log;
};

Run run_at(std::size_t threads) {
  par::set_threads(threads);
  auto study = core::run_study(core::quick_config(7));
  auto console_log = logsim::emit_console_log(study.events, *study.config.profile);
  return {std::move(study), std::move(console_log)};
}

void expect_identical(const Run& run_a, const Run& run_b) {
  const auto& a = run_a.study;
  const auto& b = run_b.study;
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto& x = a.events[i];
    const auto& y = b.events[i];
    ASSERT_EQ(x.time, y.time) << "event " << i;
    ASSERT_EQ(x.node, y.node) << "event " << i;
    ASSERT_EQ(x.card, y.card) << "event " << i;
    ASSERT_EQ(x.kind, y.kind) << "event " << i;
    ASSERT_EQ(x.structure, y.structure) << "event " << i;
    ASSERT_EQ(x.job, y.job) << "event " << i;
    ASSERT_EQ(x.user, y.user) << "event " << i;
    ASSERT_EQ(x.parent, y.parent) << "event " << i;
  }

  ASSERT_EQ(a.sbe_strikes.size(), b.sbe_strikes.size());
  for (std::size_t i = 0; i < a.sbe_strikes.size(); ++i) {
    const auto& x = a.sbe_strikes[i];
    const auto& y = b.sbe_strikes[i];
    ASSERT_EQ(x.time, y.time) << "strike " << i;
    ASSERT_EQ(x.node, y.node) << "strike " << i;
    ASSERT_EQ(x.card, y.card) << "strike " << i;
    ASSERT_EQ(x.structure, y.structure) << "strike " << i;
    ASSERT_EQ(x.page, y.page) << "strike " << i;
    ASSERT_EQ(x.from_weak_cell, y.from_weak_cell) << "strike " << i;
  }

  ASSERT_EQ(run_a.console_log.size(), run_b.console_log.size());
  for (std::size_t i = 0; i < run_a.console_log.size(); ++i) {
    ASSERT_EQ(run_a.console_log[i], run_b.console_log[i]) << "line " << i;
  }

  ASSERT_EQ(a.hot_spare_actions.size(), b.hot_spare_actions.size());
  for (std::size_t i = 0; i < a.hot_spare_actions.size(); ++i) {
    const auto& x = a.hot_spare_actions[i];
    const auto& y = b.hot_spare_actions[i];
    ASSERT_EQ(x.pulled_at, y.pulled_at) << "action " << i;
    ASSERT_EQ(x.card, y.card) << "action " << i;
    ASSERT_EQ(x.node, y.node) << "action " << i;
    ASSERT_EQ(x.failed_stress, y.failed_stress) << "action " << i;
    ASSERT_EQ(x.replacement, y.replacement) << "action " << i;
  }

  EXPECT_EQ(a.bad_node, b.bad_node);
  EXPECT_EQ(a.workload_utilization, b.workload_utilization);

  // InfoROM end state as nvidia-smi sees it.
  ASSERT_EQ(a.final_snapshot.records.size(), b.final_snapshot.records.size());
  EXPECT_EQ(a.final_snapshot.taken_at, b.final_snapshot.taken_at);
  for (std::size_t i = 0; i < a.final_snapshot.records.size(); ++i) {
    const auto& x = a.final_snapshot.records[i];
    const auto& y = b.final_snapshot.records[i];
    ASSERT_EQ(x.node, y.node) << "record " << i;
    ASSERT_EQ(x.serial, y.serial) << "record " << i;
    ASSERT_EQ(x.sbe_total, y.sbe_total) << "record " << i;
    ASSERT_EQ(x.dbe_total, y.dbe_total) << "record " << i;
    ASSERT_EQ(x.sbe_volatile, y.sbe_volatile) << "record " << i;
    ASSERT_EQ(x.dbe_volatile, y.dbe_volatile) << "record " << i;
    ASSERT_EQ(x.retired_pages_sbe, y.retired_pages_sbe) << "record " << i;
    ASSERT_EQ(x.retired_pages_dbe, y.retired_pages_dbe) << "record " << i;
    ASSERT_EQ(x.temperature_f, y.temperature_f) << "record " << i;
  }
}

/// Restores the default pool width when a test returns.
struct ThreadsGuard {
  ThreadsGuard() = default;
  ~ThreadsGuard() { par::set_threads(par::default_thread_count()); }
};

TEST(Determinism, ByteIdenticalAcrossRuns) {
  ThreadsGuard guard;
  expect_identical(run_at(4), run_at(4));
}

TEST(Determinism, ByteIdenticalAcrossThreadCounts) {
  // Each side's console log is rendered at the width it was simulated at.
  ThreadsGuard guard;
  const auto serial = run_at(1);
  expect_identical(serial, run_at(4));
}

}  // namespace
}  // namespace titan
