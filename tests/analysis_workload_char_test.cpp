// Fig. 21 workload characterization against the straightforward kernels it
// replaced: one indirect stable sort per key, rank and panel.  JobColumns
// shares one comparison sort and one counting sort among all of them, and
// every double must come out bit for bit the same.
#include "analysis/workload_char.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/facility.hpp"
#include "sched/workload.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace titan::analysis {
namespace {

// ---- Oracles: the eleven-sort kernels, verbatim over a JobTrace ----------

Profile oracle_job_profile(const sched::JobTrace& trace, JobField sort_key, JobField target,
                           std::size_t bins) {
  Profile out;
  const auto& jobs = trace.jobs();
  if (jobs.empty() || bins == 0) return out;

  std::vector<double> keys;
  std::vector<double> targets;
  keys.reserve(jobs.size());
  for (const auto& job : jobs) {
    keys.push_back(field_value(job, sort_key));
    targets.push_back(field_value(job, target));
  }
  const auto keys_norm = stats::normalize_to_mean(keys);
  const auto targets_norm = stats::normalize_to_mean(targets);
  const auto perm = stats::sort_permutation(keys_norm);
  const auto k_sorted = stats::apply_permutation(keys_norm, perm);
  const auto t_sorted = stats::apply_permutation(targets_norm, perm);

  out.key_mean.assign(bins, 0.0);
  out.target_mean.assign(bins, 0.0);
  std::vector<std::size_t> counts(bins, 0);
  for (std::size_t i = 0; i < k_sorted.size(); ++i) {
    const std::size_t b = std::min(bins - 1, i * bins / k_sorted.size());
    out.key_mean[b] += k_sorted[i];
    out.target_mean[b] += t_sorted[i];
    ++counts[b];
  }
  for (std::size_t b = 0; b < bins; ++b) {
    if (counts[b] > 0) {
      out.key_mean[b] /= static_cast<double>(counts[b]);
      out.target_mean[b] /= static_cast<double>(counts[b]);
    }
  }
  return out;
}

double oracle_cross_percentile(const std::vector<sched::JobRecord>& jobs, JobField rank_by,
                               JobField percentile_of, double top_fraction) {
  const std::size_t n = jobs.size();
  if (n == 0) return 0.0;
  std::vector<double> by;
  std::vector<double> of;
  for (const auto& job : jobs) {
    by.push_back(field_value(job, rank_by));
    of.push_back(field_value(job, percentile_of));
  }
  const auto of_ranks = stats::average_ranks(of);
  const auto perm = stats::sort_permutation(by);  // ascending
  const auto top = std::max<std::size_t>(1, static_cast<std::size_t>(
                                                static_cast<double>(n) * top_fraction));
  double acc = 0.0;
  for (std::size_t i = 0; i < top; ++i) {
    acc += of_ranks[perm[n - 1 - i]] / static_cast<double>(n);
  }
  return acc / static_cast<double>(top);
}

WorkloadShape oracle_workload_shape(const sched::JobTrace& trace) {
  WorkloadShape out;
  const auto& jobs = trace.jobs();
  if (jobs.empty()) return out;

  std::vector<double> core_hours;
  std::vector<double> node_counts;
  std::vector<double> walls;
  for (const auto& job : jobs) {
    core_hours.push_back(job.gpu_core_hours);
    node_counts.push_back(static_cast<double>(job.node_count()));
    walls.push_back(job.wall_hours());
  }
  out.corehours_vs_nodes = stats::spearman(core_hours, node_counts);
  out.top_memory_jobs_node_percentile =
      oracle_cross_percentile(jobs, JobField::kMaxMemory, JobField::kNodeCount, 0.01);
  out.top_memory_jobs_corehour_percentile =
      oracle_cross_percentile(jobs, JobField::kTotalMemory, JobField::kGpuCoreHours, 0.01);

  const auto perm = stats::sort_permutation(node_counts);
  const std::size_t q = jobs.size() / 4;
  double small_max = 0.0;
  double large_max = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double wall = walls[perm[i]];
    if (i < q) small_max = std::max(small_max, wall);
    if (i >= jobs.size() - q) large_max = std::max(large_max, wall);
  }
  out.small_vs_large_max_wall_ratio = large_max > 0.0 ? small_max / large_max : 0.0;
  return out;
}

// ---- Bitwise comparison ---------------------------------------------------

void expect_same_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
      << what << ": got " << got << ", oracle " << want;
}

void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_bits(got[i], want[i], what + "[" + std::to_string(i) + "]");
  }
}

constexpr JobField kSortKeys[] = {JobField::kGpuCoreHours, JobField::kNodeCount};
constexpr JobField kAllFields[] = {JobField::kGpuCoreHours, JobField::kNodeCount,
                                   JobField::kWallHours, JobField::kMaxMemory,
                                   JobField::kTotalMemory};

/// The shape and every (key, target) panel at `bins`, against the oracles.
void expect_matches_oracle(const sched::JobTrace& trace,
                           std::initializer_list<std::size_t> bins) {
  const JobColumns jobs{trace};
  ASSERT_EQ(jobs.size(), trace.jobs().size());
  const auto shape = workload_shape(jobs);
  const auto want = oracle_workload_shape(trace);
  expect_same_bits(shape.corehours_vs_nodes.coefficient, want.corehours_vs_nodes.coefficient,
                   "spearman");
  expect_same_bits(shape.corehours_vs_nodes.p_value, want.corehours_vs_nodes.p_value,
                   "spearman p");
  EXPECT_EQ(shape.corehours_vs_nodes.n, want.corehours_vs_nodes.n);
  expect_same_bits(shape.top_memory_jobs_node_percentile, want.top_memory_jobs_node_percentile,
                   "top max-memory node percentile");
  expect_same_bits(shape.top_memory_jobs_corehour_percentile,
                   want.top_memory_jobs_corehour_percentile,
                   "top total-memory core-hour percentile");
  expect_same_bits(shape.small_vs_large_max_wall_ratio, want.small_vs_large_max_wall_ratio,
                   "small-vs-large wall ratio");
  for (const auto key : kSortKeys) {
    for (const auto target : kAllFields) {
      for (const std::size_t b : bins) {
        const auto got = job_profile(jobs, key, target, b);
        const auto oracle = oracle_job_profile(trace, key, target, b);
        const auto what = "panel " + std::to_string(static_cast<int>(key)) + "->" +
                          std::to_string(static_cast<int>(target)) + " bins " +
                          std::to_string(b);
        expect_same_bits(got.key_mean, oracle.key_mean, what + " key");
        expect_same_bits(got.target_mean, oracle.target_mean, what + " target");
      }
    }
  }
}

// ---- Inputs -----------------------------------------------------------------

sched::JobTrace simulated_trace(const core::FacilityConfig& config) {
  const stats::Rng master{config.seed};
  const auto users = sched::make_user_population(config.users, master.fork("users"));
  return sched::simulate_workload(config.workload, users, master.fork("workload")).trace;
}

sched::JobRecord job_with(std::size_t id, std::size_t nodes) {
  sched::JobRecord job;
  job.id = static_cast<xid::JobId>(id);
  job.user = static_cast<xid::UserId>(id % 7);
  std::vector<topology::NodeId> list(nodes);
  for (std::size_t i = 0; i < nodes; ++i) list[i] = static_cast<topology::NodeId>(i);
  job.nodes = sched::NodeList(list);
  job.start = 0;
  job.end = stats::kSecondsPerHour;
  return job;
}

/// `n` jobs whose five fields each take one of a handful of values.
std::vector<sched::JobRecord> tied_jobs(std::size_t n, std::uint64_t seed) {
  stats::Rng rng{seed};
  constexpr std::size_t kNodeChoices[] = {0, 1, 2, 3, 8, 17};
  constexpr double kValues[] = {0.0, 0.5, 1.0, 1.0, 2.5, 6.0};
  std::vector<sched::JobRecord> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    auto job = job_with(i, kNodeChoices[rng.below(std::size(kNodeChoices))]);
    job.start = static_cast<stats::TimeSec>(rng.below(4)) * 600;
    job.end = job.start + static_cast<stats::TimeSec>(1 + rng.below(3)) * 1800;
    job.gpu_core_hours = kValues[rng.below(std::size(kValues))];
    job.max_memory_gb = kValues[rng.below(std::size(kValues))];
    job.total_memory_gb = kValues[rng.below(std::size(kValues))];
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// ---- Tests --------------------------------------------------------------------

TEST(WorkloadCharOracle, QuickTraceUnderBothPolicies) {
  for (const auto policy :
       {sched::PlacementPolicy::kTorusOrder, sched::PlacementPolicy::kCoolCageFirst}) {
    auto config = core::quick_config(7);
    config.workload.policy = policy;
    const auto trace = simulated_trace(config);
    ASSERT_GT(trace.jobs().size(), 1000U);
    expect_matches_oracle(trace, {1, 12, 20});
  }
}

TEST(WorkloadCharOracle, HeavyTiesInEveryField) {
  for (const std::uint64_t seed : {1U, 2U, 3U, 4U}) {
    expect_matches_oracle(sched::JobTrace{tied_jobs(401 + 300 * seed, seed)}, {1, 7, 12, 20});
  }
}

TEST(WorkloadCharOracle, NegativeCoreHours) {
  // A negative mean makes x / mean order-reversing; a zero mean leaves
  // the keys as they are.
  for (const double shift : {-4.0, -1.25}) {
    auto jobs = tied_jobs(600, 11);
    for (auto& job : jobs) job.gpu_core_hours += shift;
    const sched::JobTrace trace{std::move(jobs)};
    ASSERT_NE(stats::mean(JobColumns{trace}.column(JobField::kGpuCoreHours)), 0.0);
    expect_matches_oracle(trace, {1, 12, 20});
  }
}

TEST(WorkloadCharOracle, NormalizationMergesDistinctCoreHours) {
  // Consecutive doubles just above 1.9, the larger ones at the lower job
  // indices, plus idle jobs that pull the mean below them: x / mean lands
  // in [1, 2), whose spacing is coarser than the keys', so dividing merges
  // neighbours.  Stable order of the merged keys is index order, which
  // the raw order (larger raw key first within each merge) is not.
  constexpr std::size_t kJobs = 1200;
  constexpr std::size_t kDistinct = 8;
  std::vector<double> chain{1.9};
  while (chain.size() < kDistinct) chain.push_back(std::nextafter(chain.back(), 3.0));
  std::vector<sched::JobRecord> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    auto job = job_with(i, 1 + i % 5);
    job.gpu_core_hours = i % 10 == 0 ? 0.0 : chain[kDistinct - 1 - (i * kDistinct / kJobs)];
    job.max_memory_gb = static_cast<double>((i * 37) % 101);
    job.total_memory_gb = static_cast<double>((i * 53) % 97);
    job.end = job.start + static_cast<stats::TimeSec>(60 + (i * 29) % 3600);
    jobs.push_back(std::move(job));
  }
  const sched::JobTrace trace{std::move(jobs)};

  const JobColumns columns{trace};
  const auto raw = columns.column(JobField::kGpuCoreHours);
  const auto norm = stats::normalize_to_mean(raw);
  std::size_t merged = 0;
  const auto normalized = [&](double key) {
    const auto at = std::find(raw.begin(), raw.end(), key);
    return norm[static_cast<std::size_t>(at - raw.begin())];
  };
  for (std::size_t k = 0; k + 1 < kDistinct; ++k) {
    if (normalized(chain[k]) == normalized(chain[k + 1])) ++merged;
  }
  ASSERT_GT(merged, 0U) << "the division merged no keys; the test would be vacuous";
  expect_matches_oracle(trace, {1, 12, 20, 37});
}

TEST(WorkloadCharOracle, TopPercentBoundaryTies) {
  // 1,000 jobs: the top 1% is ten.  Four jobs hold the largest memory and
  // twenty tie for the next value across the boundary, so which six of
  // them count -- the highest indices, in descending order -- decides the
  // percentiles.  Node counts and core hours all differ, so every choice
  // shows.
  constexpr std::size_t kJobs = 1000;
  std::vector<sched::JobRecord> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    auto job = job_with(i, 1 + (i * 7919) % 211);
    job.gpu_core_hours = static_cast<double>((i * 104729) % 1009) + 0.25;
    const bool top = i % 250 == 3;
    const bool tied = i % 50 == 17;
    job.max_memory_gb = top ? 6.0 : tied ? 5.0 : static_cast<double>(i % 40) / 10.0;
    job.total_memory_gb = top ? 90.0 : tied ? 80.0 : static_cast<double>(i % 70);
    jobs.push_back(std::move(job));
  }
  expect_matches_oracle(sched::JobTrace{std::move(jobs)}, {12, 20});
}

TEST(WorkloadCharOracle, TinyTracesAndBinCounts) {
  for (std::size_t n = 0; n <= 5; ++n) {
    for (const std::uint64_t seed : {5U, 6U, 7U}) {
      expect_matches_oracle(sched::JobTrace{tied_jobs(n, seed)}, {0, 1, 12, 20, n + 3});
    }
  }
}

TEST(WorkloadCharOracle, FigureBenchPanel) {
  // bench_fig21_workload's Fig. 21(a): 12 bins, core hours -> max memory,
  // over the default campaign's trace.
  const auto trace = simulated_trace(core::default_config());
  const JobColumns jobs{trace};
  const auto got = job_profile(jobs, JobField::kGpuCoreHours, JobField::kMaxMemory, 12);
  const auto want = oracle_job_profile(trace, JobField::kGpuCoreHours, JobField::kMaxMemory, 12);
  expect_same_bits(got.key_mean, want.key_mean, "fig 21(a) key");
  expect_same_bits(got.target_mean, want.target_mean, "fig 21(a) target");
}

TEST(WorkloadChar, OnlyCoreHoursAndNodeCountAreSortKeys) {
  const sched::JobTrace trace{tied_jobs(10, 3)};
  const JobColumns jobs{trace};
  for (const auto key : {JobField::kWallHours, JobField::kMaxMemory, JobField::kTotalMemory}) {
    EXPECT_THROW((void)jobs.sorted(key), std::invalid_argument);
    EXPECT_THROW((void)job_profile(jobs, key, JobField::kNodeCount, 12), std::invalid_argument);
  }
  const JobColumns empty{sched::JobTrace{std::vector<sched::JobRecord>{}}};
  EXPECT_THROW((void)job_profile(empty, JobField::kMaxMemory, JobField::kNodeCount, 12),
               std::invalid_argument);
}

}  // namespace
}  // namespace titan::analysis
