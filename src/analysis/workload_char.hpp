// GPU workload characterization (Fig. 21, Observation 14).
//
// Four panels: jobs sorted by GPU core hours against memory (a) and node
// count (b); jobs sorted by node count against wall-clock time (c) and
// max memory (d).  Plus the headline shape indicators the observation
// states in prose.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "sched/job.hpp"
#include "stats/correlation.hpp"

namespace titan::analysis {

/// Per-bin means of a target metric with jobs sorted by a key metric,
/// both normalized to their own means (the paper's presentation).
struct Profile {
  std::vector<double> key_mean;
  std::vector<double> target_mean;
};

/// Job-level metric extractor selectors for profiles.
enum class JobField : std::uint8_t {
  kGpuCoreHours,
  kNodeCount,
  kWallHours,
  kMaxMemory,
  kTotalMemory,
};
/// Number of JobField values.
inline constexpr std::size_t kJobFields = 5;

[[nodiscard]] double field_value(const sched::JobRecord& job, JobField field) noexcept;

/// A trace's jobs as one column per JobField (trace order), plus what
/// Fig. 21 sorts by: the stable ascending order (stats::sort_permutation's)
/// and the average ranks of core hours and of node count.  Building costs
/// one comparison sort (core hours) and one counting sort (node count, a
/// whole number); workload_shape and every job_profile panel read only
/// these, so a kernel builds the columns once and shares them.
class JobColumns {
 public:
  explicit JobColumns(const sched::JobTrace& trace);

  /// One sort key's stable ascending order and its average ranks.
  struct SortedKey {
    std::vector<std::size_t> order;
    std::vector<double> ranks;
  };

  [[nodiscard]] std::size_t size() const noexcept { return columns_[0].size(); }
  [[nodiscard]] std::span<const double> column(JobField field) const noexcept {
    return columns_[static_cast<std::size_t>(field)];
  }
  /// kGpuCoreHours or kNodeCount; throws std::invalid_argument for any
  /// other field.
  [[nodiscard]] const SortedKey& sorted(JobField key) const;

 private:
  std::array<std::vector<double>, kJobFields> columns_;
  SortedKey core_hours_;
  SortedKey node_count_;
};

/// Jobs sorted by `sort_key` -- kGpuCoreHours or kNodeCount; any other
/// key throws std::invalid_argument -- then split into `bins` equal-count
/// bins.
[[nodiscard]] Profile job_profile(const JobColumns& jobs, JobField sort_key, JobField target,
                                  std::size_t bins);

struct WorkloadShape {
  /// Fig. 21(b): core hours and node count move together.
  stats::Correlation corehours_vs_nodes;
  /// Obs. 14: mean node-count percentile of the top-1% max-memory jobs
  /// (low/medium => memory hogs run at modest scale).
  double top_memory_jobs_node_percentile = 0.0;
  /// Obs. 14: mean core-hour percentile of the top-1% total-memory jobs.
  double top_memory_jobs_corehour_percentile = 0.0;
  /// Fig. 21(c): max wall-hours among small jobs (bottom node-count
  /// quartile) vs among large jobs (top quartile); > 1 shows some small
  /// jobs out-run the big ones.
  double small_vs_large_max_wall_ratio = 0.0;
};

[[nodiscard]] WorkloadShape workload_shape(const JobColumns& jobs);

}  // namespace titan::analysis
