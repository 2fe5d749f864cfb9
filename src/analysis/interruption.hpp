// Application-interruption analysis: the paper's framing question --
// "we look at the GPU system failures specifically to see how they
// impact the applications (e.g., execution interruption)".
//
// Joins app-fatal error events against the job trace to measure which
// jobs were interrupted, the node-hours they had accumulated at the
// moment of interruption, and how interruption probability scales with
// job size (the exposure argument behind checkpointing policy).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/event_frame.hpp"
#include "sched/job.hpp"
#include "xid/event.hpp"

namespace titan::analysis {

/// Size classes used for the per-scale breakdown.
inline constexpr std::array<std::size_t, 4> kSizeClassLowerBounds = {1, 64, 512, 4096};

struct SizeClassStats {
  std::size_t jobs = 0;
  std::size_t interrupted = 0;
  double node_hours_lost = 0.0;  ///< accumulated node-hours at interruption

  [[nodiscard]] double interruption_rate() const noexcept {
    return jobs > 0 ? static_cast<double>(interrupted) / static_cast<double>(jobs) : 0.0;
  }
};

struct InterruptionStudy {
  std::size_t total_jobs = 0;
  std::size_t interrupted_jobs = 0;
  double total_node_hours = 0.0;
  double node_hours_lost = 0.0;        ///< without checkpointing, upper bound
  std::array<SizeClassStats, 4> by_size{};
  /// Mean time to interrupt for a hypothetical full-machine application
  /// (hours): the window length divided by the number of app-fatal events.
  double full_machine_mtti_hours = 0.0;

  [[nodiscard]] double interruption_rate() const noexcept {
    return total_jobs > 0
               ? static_cast<double>(interrupted_jobs) / static_cast<double>(total_jobs)
               : 0.0;
  }
};

/// An event interrupts a job when it is app-fatal (crashes_app) and lands
/// on one of the job's nodes during its execution.  Only the job's FIRST
/// interruption counts (the paper's model: the app dies, the allocation
/// drains).  Reads the time/kind/job/root columns (the frame must have
/// been built from ground truth, which carries job attribution) with a
/// precomputed app-fatal lookup table.
[[nodiscard]] InterruptionStudy interruption_study(const EventFrame& frame,
                                                   const sched::JobTrace& trace,
                                                   stats::TimeSec begin, stats::TimeSec end);

}  // namespace titan::analysis
