#include "analysis/workload_char.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace titan::analysis {

double field_value(const sched::JobRecord& job, JobField field) noexcept {
  switch (field) {
    case JobField::kGpuCoreHours: return job.gpu_core_hours;
    case JobField::kNodeCount: return static_cast<double>(job.node_count());
    case JobField::kWallHours: return job.wall_hours();
    case JobField::kMaxMemory: return job.max_memory_gb;
    case JobField::kTotalMemory: return job.total_memory_gb;
  }
  return 0.0;
}

namespace {

/// The stable ascending order of `counts`, whole numbers, by a counting
/// sort: the order stats::sort_permutation gives, without comparisons.
[[nodiscard]] std::vector<std::size_t> counting_order(std::span<const double> counts) {
  const auto bucket = [](double count) { return static_cast<std::size_t>(count); };
  std::size_t largest = 0;
  for (const double count : counts) largest = std::max(largest, bucket(count));
  std::vector<std::size_t> next(largest + 2, 0);
  for (const double count : counts) ++next[bucket(count) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<std::size_t> order(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) order[next[bucket(counts[i])]++] = i;
  return order;
}

/// The stable ascending order of `norm` = stats::normalize_to_mean(raw),
/// from `order`, the stable ascending order of `raw`.  x -> x / mean is
/// monotone (non-increasing for a negative mean, the identity for a zero
/// one), so walking `order` -- backwards for a negative mean -- lists
/// `norm` ascending.  Only a run of equal normalized keys can break
/// stability: the division can round distinct raw keys to one value.
/// Each such run is put back in index order.
[[nodiscard]] std::vector<std::size_t> normalized_order(std::span<const double> raw,
                                                        std::span<const double> norm,
                                                        std::span<const std::size_t> order) {
  std::vector<std::size_t> out(order.begin(), order.end());
  if (stats::mean(raw) < 0.0) std::reverse(out.begin(), out.end());
  for (auto run = out.begin(); run != out.end();) {
    const double key = norm[*run];
    const auto end =
        std::find_if(run + 1, out.end(), [&](std::size_t i) { return norm[i] != key; });
    if (!std::is_sorted(run, end)) std::sort(run, end);
    run = end;
  }
  return out;
}

/// Mean percentile (0..1), by `percentile_ranks`, of the top-`top_fraction`
/// jobs by `rank_by`.  They are taken largest first, ties by the higher
/// index first: the tail of stats::sort_permutation(rank_by) read
/// backwards, so the sum keeps that order.
[[nodiscard]] double cross_percentile(std::span<const double> rank_by,
                                      std::span<const double> percentile_ranks,
                                      double top_fraction) {
  const std::size_t n = rank_by.size();
  const auto top = std::max<std::size_t>(1, static_cast<std::size_t>(
                                                static_cast<double>(n) * top_fraction));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto top_end = order.begin() + static_cast<std::ptrdiff_t>(top);
  std::partial_sort(order.begin(), top_end, order.end(), [&](std::size_t a, std::size_t b) {
    return rank_by[a] > rank_by[b] || (rank_by[a] == rank_by[b] && a > b);
  });
  double acc = 0.0;
  for (auto it = order.begin(); it != top_end; ++it) {
    acc += percentile_ranks[*it] / static_cast<double>(n);
  }
  return acc / static_cast<double>(top);
}

}  // namespace

JobColumns::JobColumns(const sched::JobTrace& trace) {
  const auto& jobs = trace.jobs();
  for (auto& column : columns_) column.reserve(jobs.size());
  for (const auto& job : jobs) {
    for (std::size_t f = 0; f < kJobFields; ++f) {
      columns_[f].push_back(field_value(job, static_cast<JobField>(f)));
    }
  }
  const auto hours = column(JobField::kGpuCoreHours);
  core_hours_.order = stats::sort_permutation(hours);
  core_hours_.ranks = stats::average_ranks(hours, core_hours_.order);
  const auto nodes = column(JobField::kNodeCount);
  node_count_.order = counting_order(nodes);
  node_count_.ranks = stats::average_ranks(nodes, node_count_.order);
}

const JobColumns::SortedKey& JobColumns::sorted(JobField key) const {
  if (key == JobField::kGpuCoreHours) return core_hours_;
  if (key == JobField::kNodeCount) return node_count_;
  throw std::invalid_argument{"JobColumns: only core hours and node count are sort keys"};
}

Profile job_profile(const JobColumns& jobs, JobField sort_key, JobField target,
                    std::size_t bins) {
  const auto& sorted = jobs.sorted(sort_key);
  Profile out;
  const std::size_t n = jobs.size();
  if (n == 0 || bins == 0) return out;

  const auto raw = jobs.column(sort_key);
  const auto keys = stats::normalize_to_mean(raw);
  const auto targets = stats::normalize_to_mean(jobs.column(target));
  const auto order = normalized_order(raw, keys, sorted.order);

  out.key_mean.assign(bins, 0.0);
  out.target_mean.assign(bins, 0.0);
  std::vector<std::size_t> counts(bins, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = std::min(bins - 1, i * bins / n);
    out.key_mean[b] += keys[order[i]];
    out.target_mean[b] += targets[order[i]];
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

WorkloadShape workload_shape(const JobColumns& jobs) {
  WorkloadShape out;
  const std::size_t n = jobs.size();
  if (n == 0) return out;
  const auto& hours = jobs.sorted(JobField::kGpuCoreHours);
  const auto& nodes = jobs.sorted(JobField::kNodeCount);

  // Spearman: Pearson over the average ranks.
  out.corehours_vs_nodes = stats::pearson(hours.ranks, nodes.ranks);
  out.top_memory_jobs_node_percentile =
      cross_percentile(jobs.column(JobField::kMaxMemory), nodes.ranks, 0.01);
  out.top_memory_jobs_corehour_percentile =
      cross_percentile(jobs.column(JobField::kTotalMemory), hours.ranks, 0.01);

  // Max wall among small (bottom quartile by nodes) vs large (top quartile).
  const auto walls = jobs.column(JobField::kWallHours);
  const std::size_t q = n / 4;
  double small_max = 0.0;
  double large_max = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    small_max = std::max(small_max, walls[nodes.order[i]]);
    large_max = std::max(large_max, walls[nodes.order[n - 1 - i]]);
  }
  out.small_vs_large_max_wall_ratio = large_max > 0.0 ? small_max / large_max : 0.0;
  return out;
}

}  // namespace titan::analysis
