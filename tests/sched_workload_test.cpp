#include "sched/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <queue>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/facility.hpp"
#include "par/pool.hpp"
#include "topology/torus.hpp"

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

// FNV-1a over every job's id, start, end and node ids in list order, each
// value fed as its 8 little-endian bytes.
std::uint64_t placement_digest(const JobTrace& trace) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&](std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= bits & 0xFFU;
      hash *= 1099511628211ULL;
      bits >>= 8;
    }
  };
  for (const auto& job : trace.jobs()) {
    mix(job.id);
    mix(job.start);
    mix(job.end);
    for (const topology::NodeId node : job.nodes) mix(node);
  }
  return hash;
}

// Pins every placement of the quick_config(7) workload under both
// policies: the allocator's node order is part of the study's output.
TEST(Workload, PlacementDigestPinned) {
  for (const auto& [policy, expected] :
       {std::pair{PlacementPolicy::kTorusOrder, std::uint64_t{5394664623269190232ULL}},
        std::pair{PlacementPolicy::kCoolCageFirst, std::uint64_t{9469371041827478260ULL}}}) {
    auto config = core::quick_config(7);
    config.workload.policy = policy;
    const stats::Rng master{config.seed};
    const auto users = make_user_population(config.users, master.fork("users"));
    const auto result = simulate_workload(config.workload, users, master.fork("workload"));
    EXPECT_EQ(placement_digest(result.trace), expected)
        << (policy == PlacementPolicy::kTorusOrder ? "kTorusOrder" : "kCoolCageFirst");
  }
}

// The submission draw runs ahead of the placement loop at width >= 2 and
// before it at width 1; the trace must not tell them apart.
TEST(Workload, SameTraceAtEveryWidth) {
  auto config = core::quick_config(7);
  const stats::Rng master{config.seed};
  const auto users = make_user_population(config.users, master.fork("users"));
  std::size_t blocks = 0;
  for (const std::size_t width : {1U, 2U, 4U}) {
    par::set_threads(width);
    const auto result = simulate_workload(config.workload, users, master.fork("workload"));
    EXPECT_EQ(placement_digest(result.trace), 5394664623269190232ULL) << "width " << width;
    if (width == 1) blocks = result.stats.blocks;
    EXPECT_GT(result.stats.blocks, 1U) << "width " << width;
    EXPECT_EQ(result.stats.blocks, blocks) << "width " << width;
  }
  par::set_threads(par::default_thread_count());
}

// `beside` runs once, on the draw's side, before simulate_workload
// returns; its exception propagates; the trace does not depend on it.
TEST(Workload, BesideRunsOnceAndPropagates) {
  auto config = core::quick_config(7);
  const stats::Rng master{config.seed};
  const auto users = make_user_population(config.users, master.fork("users"));
  for (const std::size_t width : {1U, 4U}) {
    par::set_threads(width);
    std::atomic<int> calls{0};
    const auto result = simulate_workload(config.workload, users, master.fork("workload"),
                                          [&] { ++calls; });
    EXPECT_EQ(calls.load(), 1) << "width " << width;
    EXPECT_EQ(placement_digest(result.trace), 5394664623269190232ULL) << "width " << width;
    EXPECT_THROW((void)simulate_workload(config.workload, users, master.fork("workload"),
                                         [] { throw std::runtime_error{"beside"}; }),
                 std::runtime_error)
        << "width " << width;
  }
  par::set_threads(par::default_thread_count());
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

// The node-expanded occupancy index JobTrace kept before it indexed runs:
// one entry per (job x allocated node), each node's jobs sorted by
// (start, id).  The oracle for job_at and occupancy.
class ExpandedTrace {
 public:
  explicit ExpandedTrace(const std::vector<JobRecord>& jobs)
      : jobs_{&jobs}, by_node_(static_cast<std::size_t>(topology::kNodeSlots)) {
    for (const auto& job : jobs) {
      for (const topology::NodeId node : job.nodes) {
        by_node_[static_cast<std::size_t>(node)].push_back(static_cast<std::size_t>(job.id));
      }
    }
    // Ids were pushed in id order, so a stable sort by start gives (start, id).
    for (auto& slice : by_node_) {
      std::stable_sort(slice.begin(), slice.end(), [&](std::size_t a, std::size_t b) {
        return jobs[a].start < jobs[b].start;
      });
    }
  }

  [[nodiscard]] xid::JobId job_at(topology::NodeId node, stats::TimeSec when) const {
    const auto& slice = by_node_[static_cast<std::size_t>(node)];
    const auto it = std::upper_bound(slice.begin(), slice.end(), when,
                                     [&](stats::TimeSec t, std::size_t j) {
                                       return t < (*jobs_)[j].start;
                                     });
    if (it == slice.begin()) return xid::kNoJob;
    const JobRecord& job = (*jobs_)[*(it - 1)];
    return when < job.end ? job.id : xid::kNoJob;
  }

  [[nodiscard]] std::vector<JobTrace::Occupancy> occupancy(topology::NodeId node,
                                                           stats::TimeSec begin,
                                                           stats::TimeSec end) const {
    std::vector<JobTrace::Occupancy> out;
    for (const std::size_t j : by_node_[static_cast<std::size_t>(node)]) {
      const JobRecord& job = (*jobs_)[j];
      if (job.start >= end) break;
      if (job.end <= begin) continue;
      out.push_back({job.id, std::max(begin, job.start), std::min(end, job.end)});
    }
    return out;
  }

 private:
  const std::vector<JobRecord>* jobs_;
  std::vector<std::vector<std::size_t>> by_node_;
};

bool same_occupancy(const std::vector<JobTrace::Occupancy>& a,
                    const std::vector<JobTrace::Occupancy>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](const auto& x, const auto& y) {
    return x.job == y.job && x.begin == y.begin && x.end == y.end;
  });
}

struct TraceQuery {
  topology::NodeId node = 0;
  stats::TimeSec begin = 0;
  stats::TimeSec end = 0;  ///< occupancy window end; unused by job_at queries
};

// Boundary queries on a node of each job (start - 1, start, end - 1, end),
// then random ones until there are at least `count`: any node slot, any
// time from before the first start to past the last end.
std::vector<TraceQuery> trace_queries(const std::vector<JobRecord>& jobs, std::size_t count,
                                      stats::Rng& rng) {
  stats::TimeSec first = std::numeric_limits<stats::TimeSec>::max();
  stats::TimeSec horizon = 0;
  for (const auto& job : jobs) {
    first = std::min(first, job.start);
    horizon = std::max(horizon, job.end);
  }
  const auto any_node = [&] {
    return static_cast<topology::NodeId>(rng.below(topology::kNodeSlots));
  };
  const auto window = [&] { return static_cast<stats::TimeSec>(rng.below(20'000)); };
  std::vector<TraceQuery> out;
  for (const auto& job : jobs) {
    const topology::NodeId node =
        job.nodes.empty() ? any_node() : job.nodes[rng.below(job.nodes.size())];
    for (const stats::TimeSec t : {job.start - 1, job.start, job.end - 1, job.end}) {
      out.push_back({node, t, t + window()});
    }
  }
  for (const stats::TimeSec t : {stats::TimeSec{0}, first - 1, horizon, horizon + 1}) {
    out.push_back({any_node(), t, t + window()});
  }
  while (out.size() < count) {
    const auto t = first - 100 + static_cast<stats::TimeSec>(
                                     rng.below(static_cast<std::uint64_t>(horizon - first + 200)));
    out.push_back({any_node(), t, t + window()});
  }
  return out;
}

// job_at on every query and occupancy on every query against the oracle.
void expect_matches_oracle(const std::vector<JobRecord>& jobs, std::size_t count,
                           std::uint64_t seed) {
  const JobTrace trace{jobs};
  const ExpandedTrace oracle{jobs};
  stats::Rng rng{seed};
  const auto queries = trace_queries(jobs, count, rng);
  ASSERT_GE(queries.size(), count);
  for (const auto& [node, begin, end] : queries) {
    ASSERT_EQ(trace.job_at(node, begin), oracle.job_at(node, begin))
        << "node " << node << " t " << begin;
    ASSERT_TRUE(
        same_occupancy(trace.occupancy(node, begin, end), oracle.occupancy(node, begin, end)))
        << "node " << node << " window [" << begin << ", " << end << ")";
  }
}

// Jobs on a few nodes, non-overlapping per node, whose ids are a shuffle
// of their chronological order: id order is not start order, so the
// constructor must sort before it fills the index.
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
    job.nodes = NodeList{std::vector<topology::NodeId>(nodes.begin(), nodes.end())};
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

  for (const topology::NodeId bad : {topology::kInvalidNode, topology::kNodeSlots}) {
    jobs[0].nodes = {bad};
    EXPECT_THROW(JobTrace{jobs}, std::invalid_argument) << bad;
  }
}

TEST(JobTrace, JobsMustShareOneOrder) {
  const auto a = TorusAllocator::production();
  auto b = TorusAllocator::production();
  std::vector<JobRecord> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<xid::JobId>(i);
    jobs[i].start = 100;
    jobs[i].end = 200;
  }
  jobs[0].nodes = *b.allocate(4);
  jobs[2].nodes = *b.allocate(4);
  EXPECT_NO_THROW(JobTrace{jobs});  // job 1 has no nodes, so no order

  jobs[1].nodes = {7};  // NodeId order
  EXPECT_THROW(JobTrace{jobs}, std::invalid_argument);
  jobs[1].nodes = NodeList{a.order()};
  jobs[1].nodes.append(0, 2);  // an equal order, but not the shared one
  EXPECT_THROW(JobTrace{jobs}, std::invalid_argument);

  // A run past the end of the order allocates no node.
  jobs[1].nodes = NodeList{b.order()};
  jobs[1].nodes.append(static_cast<std::uint32_t>(b.order()->size()) - 1, 2);
  EXPECT_THROW(JobTrace{jobs}, std::invalid_argument);
}

// Overlapping hand-built jobs in NodeId order: node n's job is its
// latest-starting job, ties going to the higher id, even while an earlier
// job still covers n.
TEST(JobTrace, LatestStartHidesEarlierCoveringJob) {
  std::vector<JobRecord> jobs(4);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<xid::JobId>(i);
  jobs[0].start = 100;  // covers nodes 120..139 (across the word at 128) until 1000
  jobs[0].end = 1000;
  jobs[0].nodes = NodeList{[] {
    std::vector<topology::NodeId> nodes(20);
    std::iota(nodes.begin(), nodes.end(), topology::NodeId{120});
    return nodes;
  }()};
  jobs[1].start = 200;
  jobs[1].end = 300;
  jobs[1].nodes = {130};
  jobs[2].start = 200;  // same start as job 1: the higher id wins
  jobs[2].end = 250;
  jobs[2].nodes = {130, 131};
  jobs[3].start = 400;
  jobs[3].end = 500;
  jobs[3].nodes = {125};
  ASSERT_EQ(jobs[0].nodes.run_count(), 1U);

  const JobTrace trace{jobs};
  EXPECT_EQ(trace.job_at(130, 150), 0);
  EXPECT_EQ(trace.job_at(130, 220), 2);
  EXPECT_EQ(trace.job_at(130, 260), xid::kNoJob);  // job 2 ended; job 0 still covers 130
  EXPECT_EQ(trace.job_at(131, 600), xid::kNoJob);
  EXPECT_EQ(trace.job_at(132, 600), 0);
  EXPECT_EQ(trace.job_at(125, 450), 3);
  EXPECT_EQ(trace.job_at(125, 600), xid::kNoJob);
  EXPECT_EQ(trace.job_at(127, 600), 0);
  EXPECT_EQ(trace.job_at(139, 999), 0);
  EXPECT_EQ(trace.job_at(140, 500), xid::kNoJob);
  const auto occ = trace.occupancy(130, 0, 2000);
  ASSERT_EQ(occ.size(), 3U);
  EXPECT_EQ(occ[0].job, 0);
  EXPECT_EQ(occ[1].job, 1);
  EXPECT_EQ(occ[2].job, 2);
  expect_matches_oracle(jobs, 100'000, 3);
}

// Random overlapping jobs in NodeId order, ids shuffled against start
// order: runs of random length from random nodes, so runs straddle
// 128-entry words, plus scattered single nodes; a few long jobs keep the
// scan bound far from most queries.
TEST(JobTrace, OverlappingIdentityTraceMatchesExpandedTrace) {
  stats::Rng rng{17};
  std::vector<JobRecord> jobs(4000);
  stats::TimeSec clock = 10'000;
  std::size_t straddling = 0;
  for (auto& job : jobs) {
    clock += static_cast<stats::TimeSec>(rng.below(40));
    job.start = clock;
    job.end = clock + 1 +
              static_cast<stats::TimeSec>(rng.below(8) == 0 ? rng.below(50'000) : rng.below(2'000));
    std::vector<topology::NodeId> nodes;
    for (std::size_t runs = 1 + rng.below(3); runs > 0; --runs) {
      const auto first = static_cast<topology::NodeId>(rng.below(topology::kNodeSlots - 300));
      const auto length =
          static_cast<topology::NodeId>(1 + rng.below(rng.bernoulli(0.5) ? 8 : 300));
      for (topology::NodeId n = first; n < first + length; ++n) nodes.push_back(n);
      straddling += first / 128 != (first + length - 1) / 128 ? 1 : 0;
    }
    job.nodes = NodeList{nodes};
  }
  ASSERT_GT(straddling, 100U);
  for (std::size_t i = jobs.size(); i > 1; --i) std::swap(jobs[i - 1], jobs[rng.below(i)]);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<xid::JobId>(i);
  expect_matches_oracle(jobs, 100'000, 19);
}

// A trace placed by a TorusAllocator itself: jobs arrive, run and leave
// in time order while operator holds come and go, so the allocator's
// runs include one-entry runs of single-yield routers and runs that
// straddle 128-entry words.
std::vector<JobRecord> allocator_trace(std::uint64_t seed, PlacementPolicy policy) {
  stats::Rng rng{seed};
  std::vector<bool> usable(static_cast<std::size_t>(topology::kNodeSlots));
  for (topology::NodeId n = 0; n < topology::kNodeSlots; ++n) {
    usable[static_cast<std::size_t>(n)] = !topology::is_service_node(n) && !rng.bernoulli(0.04);
  }
  TorusAllocator alloc{usable, policy};
  std::vector<JobRecord> jobs;
  using Completion = std::pair<stats::TimeSec, std::size_t>;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> running;
  std::vector<topology::NodeId> held;
  stats::TimeSec clock = 50'000;
  for (int step = 0; step < 6000; ++step) {
    clock += static_cast<stats::TimeSec>(rng.below(120));
    while (!running.empty() && running.top().first <= clock) {
      alloc.release(jobs[running.top().second].nodes);
      running.pop();
    }
    if (rng.bernoulli(0.1)) {
      const auto node = static_cast<topology::NodeId>(rng.below(topology::kNodeSlots));
      alloc.hold_node(node);
      held.push_back(node);
    } else if (!held.empty() && rng.bernoulli(0.05)) {
      const std::size_t idx = rng.below(held.size());
      alloc.unhold_node(held[idx]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    const std::size_t request = rng.bernoulli(0.05) ? 1 + rng.below(4000) : 1 + rng.below(60);
    auto nodes = alloc.allocate(request);
    if (!nodes) continue;
    JobRecord job;
    job.id = static_cast<xid::JobId>(jobs.size());
    job.start = clock;
    job.end = clock + 1 + static_cast<stats::TimeSec>(rng.below(20'000));
    job.nodes = std::move(*nodes);
    running.emplace(job.end, jobs.size());
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(JobTrace, AllocatorTraceMatchesExpandedTrace) {
  for (const auto policy : {PlacementPolicy::kTorusOrder, PlacementPolicy::kCoolCageFirst}) {
    SCOPED_TRACE(policy == PlacementPolicy::kTorusOrder ? "kTorusOrder" : "kCoolCageFirst");
    const auto jobs = allocator_trace(23, policy);
    std::size_t single_entry = 0;
    std::size_t straddling = 0;
    for (const auto& job : jobs) {
      for (std::size_t r = 0; r < job.nodes.run_count(); ++r) {
        const auto run = job.nodes.run(r);
        single_entry += run.length == 1 ? 1 : 0;
        straddling += run.first / 128 != (run.first + run.length - 1) / 128 ? 1 : 0;
      }
    }
    ASSERT_GT(jobs.size(), 1000U);
    ASSERT_GT(single_entry, 100U);
    ASSERT_GT(straddling, 100U);
    expect_matches_oracle(jobs, 100'000, 29);
  }
}

// The simulated workload under both policies, including its node order.
TEST(JobTrace, WorkloadMatchesExpandedTrace) {
  for (const auto policy : {PlacementPolicy::kTorusOrder, PlacementPolicy::kCoolCageFirst}) {
    SCOPED_TRACE(policy == PlacementPolicy::kTorusOrder ? "kTorusOrder" : "kCoolCageFirst");
    WorkloadParams params;
    params.period = short_period();
    params.policy = policy;
    const auto users = make_user_population(UserPopulationParams{}, stats::Rng{5});
    const auto result = simulate_workload(params, users, stats::Rng{6});
    expect_matches_oracle(result.trace.jobs(), 100'000, 31);
  }
}

// Wide jobs on random node sets, in runs that share one start; about one
// job in eight is followed by a zero-node job at the same start.  The
// first job holds nodes [0, kWidth) from the first start to past the
// last end, so every query on those nodes scans back to it.
constexpr std::size_t kWidth = 512;

std::vector<JobRecord> wide_random_jobs(std::uint64_t seed, std::size_t sized_jobs) {
  stats::Rng rng{seed};
  constexpr stats::TimeSec kFirst = 10'000;
  std::vector<topology::NodeId> pool(static_cast<std::size_t>(topology::kNodeSlots) - kWidth);
  std::iota(pool.begin(), pool.end(), static_cast<topology::NodeId>(kWidth));
  std::vector<stats::TimeSec> free_at(static_cast<std::size_t>(topology::kNodeSlots), kFirst);

  std::vector<JobRecord> jobs(1);
  jobs[0].start = kFirst;
  std::vector<topology::NodeId> first_nodes(kWidth);
  std::iota(first_nodes.begin(), first_nodes.end(), topology::NodeId{0});
  jobs[0].nodes = NodeList{first_nodes};
  std::size_t placed = 1;
  stats::TimeSec clock = kFirst;
  while (placed < sized_jobs) {
    const std::size_t run = 1 + rng.below(6);
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
      const auto from = pool.begin() + static_cast<std::ptrdiff_t>(r * kWidth);
      std::vector<topology::NodeId> nodes(from, from + static_cast<std::ptrdiff_t>(kWidth));
      std::sort(nodes.begin(), nodes.end());
      job.nodes = NodeList{nodes};
      for (const auto n : nodes) free_at[static_cast<std::size_t>(n)] = job.end;
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

TEST(JobTrace, WideRandomJobsMatchExpandedTrace) {
  for (const bool shuffle_ids : {false, true}) {
    SCOPED_TRACE(shuffle_ids ? "shuffled ids" : "chronological ids");
    auto jobs = wide_random_jobs(7, 1500);
    if (shuffle_ids) {
      // Swap a few hundred jobs so that starts leave id order.
      stats::Rng rng{11};
      for (int i = 0; i < 300; ++i) {
        std::swap(jobs[rng.below(jobs.size())], jobs[rng.below(jobs.size())]);
      }
      for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<xid::JobId>(i);
      ASSERT_FALSE(std::is_sorted(jobs.begin(), jobs.end(), [](const auto& a, const auto& b) {
        return a.start < b.start;
      }));
    }
    expect_matches_oracle(jobs, 100'000, 13);
  }
}

}  // namespace
}  // namespace titan::sched
