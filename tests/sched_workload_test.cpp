#include "sched/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "par/pool.hpp"

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

TEST(JobTrace, NegativeOrOutOfRangeNodeThrows) {
  std::vector<JobRecord> jobs(1);
  jobs[0].id = 0;
  jobs[0].start = 100;
  jobs[0].end = 200;
  jobs[0].nodes = {0, topology::kNodeSlots - 1};
  const JobTrace trace{jobs};
  for (const topology::NodeId node :
       {topology::kInvalidNode, topology::NodeId{-2}, topology::kNodeSlots,
        std::numeric_limits<topology::NodeId>::max()}) {
    EXPECT_THROW((void)trace.job_at(node, 150), std::out_of_range) << node;
    EXPECT_THROW((void)trace.occupancy(node, 0, 1000), std::out_of_range) << node;
  }
  EXPECT_EQ(trace.job_at(topology::kNodeSlots - 1, 150), 0);
  EXPECT_EQ(trace.occupancy(topology::kNodeSlots - 1, 0, 1000).size(), 1U);

  jobs[0].nodes = {topology::kInvalidNode};
  EXPECT_THROW(JobTrace{jobs}, std::invalid_argument);
}

// A trace spanning several index epochs.  Every job but the zero-node ones
// allocates exactly kWidth nodes, so an epoch holds exactly kPerEpoch of
// them and its fences fall between known jobs of the (start, id) order.
constexpr std::size_t kWidth = 512;
constexpr std::size_t kPerEpoch = JobTrace::kEpochEntries / kWidth;

// Jobs in chronological order, in runs that share one start on disjoint
// random nodes; no run ends on an epoch fence, so each fence splits a run
// of equal starts.  About one job in eight is followed by a zero-node job
// at the same start.  The first job holds nodes [0, kWidth) from the first
// start to past the last end, so queries on those nodes in later epochs
// walk back over empty slices.
std::vector<JobRecord> multi_epoch_jobs(std::uint64_t seed, std::size_t sized_jobs) {
  stats::Rng rng{seed};
  constexpr stats::TimeSec kFirst = 10'000;
  std::vector<topology::NodeId> pool(static_cast<std::size_t>(topology::kNodeSlots) - kWidth);
  std::iota(pool.begin(), pool.end(), static_cast<topology::NodeId>(kWidth));
  std::vector<stats::TimeSec> free_at(static_cast<std::size_t>(topology::kNodeSlots), kFirst);

  std::vector<JobRecord> jobs(1);
  jobs[0].start = kFirst;
  jobs[0].nodes.resize(kWidth);
  std::iota(jobs[0].nodes.begin(), jobs[0].nodes.end(), topology::NodeId{0});
  std::size_t placed = 1;
  stats::TimeSec clock = kFirst;
  while (placed < sized_jobs) {
    std::size_t run = 1 + rng.below(6);
    if ((placed + run) % kPerEpoch == 0) run += 3;
    const std::size_t picks = run * kWidth;
    for (std::size_t i = 0; i < picks; ++i) {
      std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
    }
    stats::TimeSec start = clock;
    for (std::size_t i = 0; i < picks; ++i) {
      start = std::max(start, free_at[static_cast<std::size_t>(pool[i])]);
    }
    start += static_cast<stats::TimeSec>(rng.below(3));
    clock = start;
    for (std::size_t r = 0; r < run; ++r) {
      JobRecord job;
      job.start = start;
      job.end = start + 1 + static_cast<stats::TimeSec>(rng.below(5000));
      job.nodes.assign(pool.begin() + static_cast<std::ptrdiff_t>(r * kWidth),
                       pool.begin() + static_cast<std::ptrdiff_t>((r + 1) * kWidth));
      std::sort(job.nodes.begin(), job.nodes.end());
      for (const auto n : job.nodes) free_at[static_cast<std::size_t>(n)] = job.end;
      jobs.push_back(std::move(job));
      if (rng.below(8) == 0) {
        JobRecord idle;
        idle.start = start;
        idle.end = start + 1 + static_cast<stats::TimeSec>(rng.below(100));
        jobs.push_back(std::move(idle));
      }
    }
    placed += run;
  }
  for (const auto& job : jobs) jobs[0].end = std::max(jobs[0].end, job.end + 1);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<xid::JobId>(i);
  return jobs;
}

struct TraceQuery {
  topology::NodeId node = 0;
  stats::TimeSec begin = 0;
  stats::TimeSec end = 0;  ///< occupancy window end; unused by job_at queries
};

std::vector<TraceQuery> epoch_queries(const std::vector<JobRecord>& jobs, stats::Rng& rng) {
  stats::TimeSec first = std::numeric_limits<stats::TimeSec>::max();
  stats::TimeSec horizon = 0;
  for (const auto& job : jobs) {
    first = std::min(first, job.start);
    horizon = std::max(horizon, job.end);
  }
  const auto any_node = [&] {
    return static_cast<topology::NodeId>(rng.below(topology::kNodeSlots));
  };
  std::vector<TraceQuery> out;
  for (const auto& job : jobs) {
    const topology::NodeId node =
        job.nodes.empty() ? any_node() : job.nodes[rng.below(job.nodes.size())];
    for (const stats::TimeSec t : {job.start - 1, job.start, job.end - 1, job.end}) {
      out.push_back({node, t, t + static_cast<stats::TimeSec>(rng.below(20'000))});
    }
  }
  for (int i = 0; i < 200; ++i) {
    for (const stats::TimeSec t : {stats::TimeSec{0}, first - 1, horizon, horizon + 1}) {
      out.push_back({any_node(), t, t + static_cast<stats::TimeSec>(rng.below(20'000))});
    }
    const auto node = static_cast<topology::NodeId>(rng.below(kWidth));
    const auto t = first + static_cast<stats::TimeSec>(
                               rng.below(static_cast<std::uint64_t>(horizon - first)));
    out.push_back({node, t, t + 1});
  }
  return out;
}

xid::JobId brute_job_at(const std::vector<JobRecord>& jobs, topology::NodeId node,
                        stats::TimeSec when) {
  xid::JobId found = xid::kNoJob;
  for (const auto& job : jobs) {
    if (when >= job.start && when < job.end &&
        std::binary_search(job.nodes.begin(), job.nodes.end(), node)) {
      found = job.id;
    }
  }
  return found;
}

std::vector<JobTrace::Occupancy> brute_occupancy(const std::vector<JobRecord>& jobs,
                                                 const TraceQuery& q) {
  std::vector<const JobRecord*> overlapping;
  for (const auto& job : jobs) {
    if (job.start < q.end && job.end > q.begin &&
        std::binary_search(job.nodes.begin(), job.nodes.end(), q.node)) {
      overlapping.push_back(&job);
    }
  }
  std::sort(overlapping.begin(), overlapping.end(), [](const auto* a, const auto* b) {
    return a->start != b->start ? a->start < b->start : a->id < b->id;
  });
  std::vector<JobTrace::Occupancy> out;
  for (const auto* job : overlapping) {
    out.push_back({job->id, std::max(q.begin, job->start), std::min(q.end, job->end)});
  }
  return out;
}

bool same_occupancy(const std::vector<JobTrace::Occupancy>& a,
                    const std::vector<JobTrace::Occupancy>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](const auto& x, const auto& y) {
    return x.job == y.job && x.begin == y.begin && x.end == y.end;
  });
}

TEST(JobTrace, EpochBoundariesMatchBruteForce) {
  const std::size_t width_before = par::thread_count();
  for (const bool shuffle_ids : {false, true}) {
    auto jobs = multi_epoch_jobs(7, 2 * kPerEpoch + kPerEpoch / 2);
    std::size_t entries = 0;
    for (const auto& job : jobs) entries += job.nodes.size();
    ASSERT_GT(entries, 2 * JobTrace::kEpochEntries);

    stats::Rng rng{11};
    if (shuffle_ids) {
      // Swap a few hundred jobs so that starts leave id order.
      for (int i = 0; i < 300; ++i) {
        std::swap(jobs[rng.below(jobs.size())], jobs[rng.below(jobs.size())]);
      }
      for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<xid::JobId>(i);
      ASSERT_FALSE(std::is_sorted(jobs.begin(), jobs.end(), [](const auto& a, const auto& b) {
        return a.start < b.start;
      }));
    }
    const auto queries = epoch_queries(jobs, rng);
    std::vector<xid::JobId> want_job;
    std::vector<std::vector<JobTrace::Occupancy>> want_windows;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      want_job.push_back(brute_job_at(jobs, queries[q].node, queries[q].begin));
      if (q % 16 == 0) want_windows.push_back(brute_occupancy(jobs, queries[q]));
    }

    // Only the build runs on the pool; the lookups are serial.
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      par::set_threads(width);
      const JobTrace trace{jobs};
      par::set_threads(width_before);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto& [node, begin, end] = queries[q];
        ASSERT_EQ(trace.job_at(node, begin), want_job[q])
            << "width " << width << " shuffle " << shuffle_ids << " node " << node << " t "
            << begin;
        if (q % 16 == 0) {
          ASSERT_TRUE(same_occupancy(trace.occupancy(node, begin, end), want_windows[q / 16]))
              << "width " << width << " shuffle " << shuffle_ids << " node " << node
              << " window [" << begin << ", " << end << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace titan::sched
