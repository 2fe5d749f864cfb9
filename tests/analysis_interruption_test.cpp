#include "analysis/interruption.hpp"

#include <gtest/gtest.h>

namespace titan::analysis {
namespace {

sched::JobTrace make_trace() {
  std::vector<sched::JobRecord> jobs(3);
  // Job 0: 2 nodes, 10 h.
  jobs[0].id = 0;
  jobs[0].user = 1;
  jobs[0].start = 0;
  jobs[0].end = 36000;
  jobs[0].nodes = {10, 11};
  // Job 1: 1000 nodes, 2 h.
  jobs[1].id = 1;
  jobs[1].user = 2;
  jobs[1].start = 0;
  jobs[1].end = 7200;
  jobs[1].nodes.append(100, 1000);  // nodes 100..1099, in NodeId order
  // Job 2: 1 node, 1 h, untouched.
  jobs[2].id = 2;
  jobs[2].user = 3;
  jobs[2].start = 40000;
  jobs[2].end = 43600;
  jobs[2].nodes = {10};
  return sched::JobTrace{std::move(jobs)};
}

xid::Event ev(stats::TimeSec t, topology::NodeId node, xid::ErrorKind kind, xid::JobId job,
              std::int64_t parent = -1) {
  xid::Event e;
  e.time = t;
  e.node = node;
  e.kind = kind;
  e.job = job;
  e.parent = parent;
  return e;
}

TEST(Interruption, CountsFirstHitPerJob) {
  const auto trace = make_trace();
  std::vector<xid::Event> events{
      ev(3600, 10, xid::ErrorKind::kDoubleBitError, 0),   // job 0 at 1 h in
      ev(7000, 11, xid::ErrorKind::kDoubleBitError, 0),   // second hit: ignored
  };
  const auto study = interruption_study(EventFrame::build(events), trace, 0, 50000);
  EXPECT_EQ(study.total_jobs, 3U);
  EXPECT_EQ(study.interrupted_jobs, 1U);
  // 2 nodes x 1 h accumulated at the hit.
  EXPECT_NEAR(study.node_hours_lost, 2.0, 1e-9);
}

TEST(Interruption, ChildEventsDoNotCount) {
  const auto trace = make_trace();
  std::vector<xid::Event> events{
      ev(3600, 100, xid::ErrorKind::kGraphicsEngineException, 1),
      ev(3601, 101, xid::ErrorKind::kGraphicsEngineException, 1, /*parent=*/0),
  };
  const auto study = interruption_study(EventFrame::build(events), trace, 0, 50000);
  EXPECT_EQ(study.interrupted_jobs, 1U);
  // 1000 nodes x 1 h.
  EXPECT_NEAR(study.node_hours_lost, 1000.0, 1e-6);
}

TEST(Interruption, NonCrashingKindsIgnored) {
  const auto trace = make_trace();
  std::vector<xid::Event> events{
      ev(3600, 10, xid::ErrorKind::kPageRetirement, 0),   // does not crash
      ev(3700, 10, xid::ErrorKind::kSingleBitError, 0),   // corrected
  };
  const auto study = interruption_study(EventFrame::build(events), trace, 0, 50000);
  EXPECT_EQ(study.interrupted_jobs, 0U);
  EXPECT_EQ(study.node_hours_lost, 0.0);
}

TEST(Interruption, SizeClassBreakdown) {
  const auto trace = make_trace();
  std::vector<xid::Event> events{
      ev(3600, 100, xid::ErrorKind::kOffTheBus, 1),  // the 1000-node job
  };
  const auto study = interruption_study(EventFrame::build(events), trace, 0, 50000);
  // 1000 nodes falls in class 2 (512..4095).
  EXPECT_EQ(study.by_size[2].jobs, 1U);
  EXPECT_EQ(study.by_size[2].interrupted, 1U);
  EXPECT_EQ(study.by_size[0].interrupted, 0U);
  EXPECT_DOUBLE_EQ(study.by_size[2].interruption_rate(), 1.0);
}

TEST(Interruption, FullMachineMtti) {
  const auto trace = make_trace();
  std::vector<xid::Event> events;
  // 10 app-fatal events over a 100-hour window -> MTTI 10 h.
  for (int i = 0; i < 10; ++i) {
    events.push_back(ev(i * 36000, 5000 + i, xid::ErrorKind::kDoubleBitError, xid::kNoJob));
  }
  const auto study = interruption_study(EventFrame::build(events), trace, 0, 100 * 3600);
  EXPECT_NEAR(study.full_machine_mtti_hours, 10.0, 1e-9);
}

TEST(Interruption, WindowFiltersJobsAndEvents) {
  const auto trace = make_trace();
  std::vector<xid::Event> events{
      ev(3600, 10, xid::ErrorKind::kDoubleBitError, 0),
  };
  // Window starting after job 0/1: only job 2 counted, no events.
  const auto study = interruption_study(EventFrame::build(events), trace, 39000, 50000);
  EXPECT_EQ(study.total_jobs, 1U);
  EXPECT_EQ(study.interrupted_jobs, 0U);
}

}  // namespace
}  // namespace titan::analysis
