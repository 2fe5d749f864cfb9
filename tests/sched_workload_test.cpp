#include "sched/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace titan::sched {
namespace {

stats::StudyPeriod short_period() {
  stats::StudyPeriod p;
  p.begin = stats::to_time(stats::CivilDate{2013, 6, 1});
  p.end = stats::to_time(stats::CivilDate{2013, 7, 1});
  return p;
}

WorkloadResult run_short(std::uint64_t seed = 5) {
  WorkloadParams params;
  params.period = short_period();
  const auto users = make_user_population(UserPopulationParams{}, stats::Rng{seed});
  return simulate_workload(params, users, stats::Rng{seed + 1});
}

TEST(Users, PopulationShape) {
  const auto users = make_user_population(UserPopulationParams{}, stats::Rng{1});
  EXPECT_EQ(users.size(), 400U);
  double total_weight = 0.0;
  for (const auto& u : users) {
    EXPECT_GE(u.debug_propensity, 0.0);
    EXPECT_LE(u.debug_propensity, 0.45);
    EXPECT_GT(u.activity_weight, 0.0);
    total_weight += u.activity_weight;
  }
  EXPECT_NEAR(total_weight, 1.0, 1e-9);
  // Zipf: the first user dominates.
  EXPECT_GT(users[0].activity_weight, users[100].activity_weight * 10);
}

TEST(Users, Deterministic) {
  const auto a = make_user_population(UserPopulationParams{}, stats::Rng{9});
  const auto b = make_user_population(UserPopulationParams{}, stats::Rng{9});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scale_mu, b[i].scale_mu);
    EXPECT_EQ(a[i].debug_propensity, b[i].debug_propensity);
  }
}

TEST(Workload, JobsAreWellFormed) {
  const auto result = run_short();
  const auto& jobs = result.trace.jobs();
  ASSERT_GT(jobs.size(), 500U);
  const auto period = short_period();
  for (const auto& job : jobs) {
    EXPECT_GE(job.start, period.begin);
    EXPECT_LE(job.end, period.end);
    EXPECT_LT(job.start, job.end);
    EXPECT_FALSE(job.nodes.empty());
    EXPECT_GE(job.gpu_core_hours, 0.0);
    EXPECT_GT(job.max_memory_gb, 0.0);
    EXPECT_NE(job.user, xid::kNoUser);
  }
}

TEST(Workload, JobIdsDense) {
  const auto result = run_short();
  const auto& jobs = result.trace.jobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<xid::JobId>(i));
  }
}

TEST(Workload, NoNodeDoubleBooked) {
  const auto result = run_short();
  // For a sample of nodes, occupancy intervals must not overlap.
  for (topology::NodeId node = 0; node < topology::kNodeSlots; node += 997) {
    const auto occ = result.trace.occupancy(node, short_period().begin, short_period().end);
    for (std::size_t i = 1; i < occ.size(); ++i) {
      EXPECT_LE(occ[i - 1].end, occ[i].begin) << "node " << node;
    }
  }
}

TEST(Workload, JobAtFindsRunningJob) {
  const auto result = run_short();
  const auto& jobs = result.trace.jobs();
  ASSERT_FALSE(jobs.empty());
  const auto& job = jobs[jobs.size() / 2];
  const auto mid = job.start + (job.end - job.start) / 2;
  for (const auto node : job.nodes) {
    EXPECT_EQ(result.trace.job_at(node, mid), job.id);
  }
  EXPECT_EQ(result.trace.job_at(job.nodes.front(), job.end), xid::kNoJob);
}

TEST(Workload, UtilizationIsHigh) {
  const auto result = run_short();
  EXPECT_GT(result.utilization(), 0.5);
  EXPECT_LE(result.utilization(), 1.0);
}

TEST(Workload, SomeDebugJobsExist) {
  const auto result = run_short();
  std::size_t debug = 0;
  for (const auto& job : result.trace.jobs()) {
    if (job.debug) ++debug;
  }
  EXPECT_GT(debug, 10U);
  EXPECT_LT(debug, result.trace.jobs().size() / 3);
}

TEST(Workload, Deterministic) {
  const auto a = run_short(11);
  const auto b = run_short(11);
  ASSERT_EQ(a.trace.jobs().size(), b.trace.jobs().size());
  for (std::size_t i = 0; i < a.trace.jobs().size(); i += 17) {
    EXPECT_EQ(a.trace.jobs()[i].start, b.trace.jobs()[i].start);
    EXPECT_EQ(a.trace.jobs()[i].nodes, b.trace.jobs()[i].nodes);
  }
}

TEST(Workload, DeadlineCalendarFlagsWeeks) {
  const stats::StudyPeriod period;  // full 21 months
  const DeadlineCalendar calendar{period, 0.15, stats::Rng{3}};
  EXPECT_GT(calendar.deadline_week_count(), 3U);
  EXPECT_LT(calendar.deadline_week_count(), 40U);
  EXPECT_FALSE(calendar.is_deadline(period.begin - 100));
}

TEST(Workload, DeadlineWeeksAreWeekGranular) {
  const stats::StudyPeriod period;
  const DeadlineCalendar calendar{period, 0.5, stats::Rng{4}};
  // Within any single week the flag is constant.
  for (int week = 0; week < 20; ++week) {
    const auto base = period.begin + week * 7 * stats::kSecondsPerDay;
    const bool flag = calendar.is_deadline(base);
    for (int d = 1; d < 7; ++d) {
      EXPECT_EQ(calendar.is_deadline(base + d * stats::kSecondsPerDay), flag);
    }
  }
}

TEST(JobTrace, RejectsNonDenseIds) {
  std::vector<JobRecord> jobs(1);
  jobs[0].id = 5;
  EXPECT_THROW(JobTrace{std::move(jobs)}, std::invalid_argument);
}

TEST(JobTrace, UnknownJobThrows) {
  const JobTrace trace{{}};
  EXPECT_THROW((void)trace.job(0), std::out_of_range);
}

// Jobs on a few nodes, non-overlapping per node, whose ids are a shuffle
// of their chronological order: id order is not start order, so some
// node slices of the occupancy index need the constructor's sort.
std::vector<JobRecord> shuffled_jobs(std::uint64_t seed, topology::NodeId node_span) {
  stats::Rng rng{seed};
  std::vector<stats::TimeSec> free_at(static_cast<std::size_t>(node_span), 1000);
  std::vector<JobRecord> jobs(200);
  for (auto& job : jobs) {
    const std::size_t width = 1 + rng.below(4);
    std::set<topology::NodeId> nodes;
    while (nodes.size() < width) {
      nodes.insert(static_cast<topology::NodeId>(rng.below(static_cast<std::uint64_t>(node_span))));
    }
    job.nodes.assign(nodes.begin(), nodes.end());
    stats::TimeSec start = 0;
    for (const auto n : job.nodes) start = std::max(start, free_at[static_cast<std::size_t>(n)]);
    job.start = start + static_cast<stats::TimeSec>(rng.below(50));
    job.end = job.start + 1 + static_cast<stats::TimeSec>(rng.below(200));
    for (const auto n : job.nodes) free_at[static_cast<std::size_t>(n)] = job.end;
  }
  for (std::size_t i = jobs.size(); i > 1; --i) std::swap(jobs[i - 1], jobs[rng.below(i)]);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<xid::JobId>(i);
  return jobs;
}

bool runs_on(const JobRecord& job, topology::NodeId node) {
  return std::find(job.nodes.begin(), job.nodes.end(), node) != job.nodes.end();
}

TEST(JobTrace, UnsortedIdOrderMatchesBruteForce) {
  constexpr topology::NodeId kNodes = 12;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto jobs = shuffled_jobs(seed, kNodes);

    // Precondition: some node's jobs, in id order, do not start in order.
    bool needs_sort = false;
    for (topology::NodeId n = 0; n < kNodes && !needs_sort; ++n) {
      stats::TimeSec last = 0;
      for (const auto& job : jobs) {
        if (!runs_on(job, n)) continue;
        needs_sort |= job.start < last;
        last = job.start;
      }
    }
    ASSERT_TRUE(needs_sort) << "seed " << seed;

    const JobTrace trace{jobs};
    stats::TimeSec horizon = 0;
    for (const auto& job : jobs) horizon = std::max(horizon, job.end);
    for (topology::NodeId n = 0; n < kNodes; ++n) {
      for (stats::TimeSec t = 990; t <= horizon + 10; ++t) {
        xid::JobId expected = xid::kNoJob;
        for (const auto& job : jobs) {
          if (runs_on(job, n) && t >= job.start && t < job.end) expected = job.id;
        }
        ASSERT_EQ(trace.job_at(n, t), expected) << "node " << n << " t " << t;
      }
    }

    stats::Rng rng{seed + 100};
    for (int q = 0; q < 200; ++q) {
      const auto n = static_cast<topology::NodeId>(rng.below(kNodes));
      const auto begin = 900 + static_cast<stats::TimeSec>(
                                   rng.below(static_cast<std::uint64_t>(horizon - 800)));
      const auto end = begin + static_cast<stats::TimeSec>(rng.below(2000));
      std::vector<const JobRecord*> overlapping;
      for (const auto& job : jobs) {
        if (runs_on(job, n) && job.start < end && job.end > begin) overlapping.push_back(&job);
      }
      std::sort(overlapping.begin(), overlapping.end(), [](const auto* a, const auto* b) {
        return a->start != b->start ? a->start < b->start : a->id < b->id;
      });
      const auto got = trace.occupancy(n, begin, end);
      ASSERT_EQ(got.size(), overlapping.size()) << "node " << n;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].job, overlapping[i]->id);
        EXPECT_EQ(got[i].begin, std::max(begin, overlapping[i]->start));
        EXPECT_EQ(got[i].end, std::min(end, overlapping[i]->end));
      }
    }
  }
}

}  // namespace
}  // namespace titan::sched
