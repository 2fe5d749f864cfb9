// Campaign-length batch workload simulation.
//
// Drives arrivals from the user population through the torus allocator to
// produce the 21-month job trace that every Section 4 analysis consumes.
// Two stages: the submission draw (arrivals, users, job specs) reads no
// placement state, so it runs ahead of the placement loop, which runs on
// a second pool thread (par::run_ahead), and hands it fixed blocks of
// submissions, each freed once placed.
// Also owns the "deadline calendar": weeks in which error-prone debug jobs
// spike ("sudden rise in such errors may also correlate with domain
// scientists' project or paper deadlines", Section 3.2).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sched/allocator.hpp"
#include "sched/job.hpp"
#include "sched/users.hpp"
#include "stats/calendar.hpp"
#include "stats/rng.hpp"

namespace titan::sched {

/// Weeks flagged as deadline crunches.
class DeadlineCalendar {
 public:
  DeadlineCalendar(const stats::StudyPeriod& period, double week_probability, stats::Rng rng);

  [[nodiscard]] bool is_deadline(stats::TimeSec t) const noexcept;
  [[nodiscard]] std::size_t deadline_week_count() const noexcept;

 private:
  stats::TimeSec origin_;
  std::vector<bool> weeks_;
};

struct WorkloadParams {
  stats::StudyPeriod period{};
  /// Mean gap between job submissions (tunes machine utilization; the
  /// default targets roughly 85% busy node-hours).
  double mean_arrival_gap_s = 450.0;
  /// Cap on queued-but-not-started jobs; beyond it, submissions are shed.
  std::size_t max_queue = 4000;
  /// Jobs larger than this fraction of the machine are clamped down.
  double max_job_fraction = 0.65;
  /// Wall-clock limit (Titan queue policy).
  double wall_cap_hours = 24.0;
  double deadline_week_probability = 0.15;
  PlacementPolicy policy = PlacementPolicy::kTorusOrder;
};

/// How the simulation went (bench counters, never part of a report):
/// `blocks_waited` depends on thread timing, the rest do not.
struct WorkloadStats {
  std::size_t blocks = 0;         ///< submission blocks the draw published
  std::size_t blocks_waited = 0;  ///< blocks placement had to wait for
  std::uint64_t fits = 0;         ///< contiguous first-fit searches
  std::uint64_t fit_words = 0;    ///< free-bitmap words those searches visited
};

struct WorkloadResult {
  JobTrace trace;
  DeadlineCalendar deadlines;
  std::size_t shed_jobs = 0;          ///< submissions dropped at the queue cap
  double busy_node_hours = 0.0;       ///< sum over jobs of nodes x wall
  double capacity_node_hours = 0.0;   ///< compute nodes x campaign hours
  WorkloadStats stats{};

  [[nodiscard]] double utilization() const noexcept {
    return capacity_node_hours > 0.0 ? busy_node_hours / capacity_node_hours : 0.0;
  }
};

/// Simulate the campaign workload.  Deterministic in (params, users, rng).
/// `beside`, when set, runs on the draw's side once the last submission
/// is drawn, so work that does not read the trace overlaps the placement
/// loop; it runs before this returns, and an exception from it
/// propagates.
[[nodiscard]] WorkloadResult simulate_workload(const WorkloadParams& params,
                                               std::span<const UserProfile> users,
                                               stats::Rng rng,
                                               const std::function<void()>& beside = {});

}  // namespace titan::sched
