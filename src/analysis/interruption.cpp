#include "analysis/interruption.hpp"

#include <unordered_map>

namespace titan::analysis {

namespace {

[[nodiscard]] std::size_t size_class(std::size_t nodes) {
  std::size_t cls = 0;
  for (std::size_t i = 0; i < kSizeClassLowerBounds.size(); ++i) {
    if (nodes >= kSizeClassLowerBounds[i]) cls = i;
  }
  return cls;
}

/// Fold the per-job first-interruption map into the study totals.
[[nodiscard]] InterruptionStudy accumulate_jobs(
    const std::unordered_map<xid::JobId, stats::TimeSec>& first_hit,
    std::size_t app_fatal_events, const sched::JobTrace& trace, stats::TimeSec begin,
    stats::TimeSec end) {
  InterruptionStudy out;
  for (const auto& job : trace.jobs()) {
    if (job.start < begin || job.start >= end) continue;
    ++out.total_jobs;
    const double node_hours = static_cast<double>(job.node_count()) * job.wall_hours();
    out.total_node_hours += node_hours;
    auto& cls = out.by_size[size_class(job.node_count())];
    ++cls.jobs;
    const auto hit = first_hit.find(job.id);
    if (hit == first_hit.end()) continue;
    ++out.interrupted_jobs;
    ++cls.interrupted;
    const double hours_in =
        static_cast<double>(hit->second - job.start) / static_cast<double>(stats::kSecondsPerHour);
    const double lost = static_cast<double>(job.node_count()) * hours_in;
    out.node_hours_lost += lost;
    cls.node_hours_lost += lost;
  }

  const double window_hours =
      static_cast<double>(end - begin) / static_cast<double>(stats::kSecondsPerHour);
  out.full_machine_mtti_hours =
      app_fatal_events > 0 ? window_hours / static_cast<double>(app_fatal_events) : 0.0;
  return out;
}

}  // namespace

InterruptionStudy interruption_study(const EventFrame& frame, const sched::JobTrace& trace,
                                     stats::TimeSec begin, stats::TimeSec end) {
  // crashes_app is kind metadata shared by every fleet, and the frame only
  // holds kinds the active profile generated, so the full table is safe.
  std::array<bool, xid::kErrorKindCount> crashes{};
  for (const auto& info : xid::all_errors()) {  // titanlint: allow(profile-hygiene)
    crashes[static_cast<std::size_t>(info.kind)] = info.crashes_app;
  }

  const auto times = frame.times();
  const auto kinds = frame.kinds();
  const auto jobs = frame.jobs();
  const auto roots = frame.roots();
  std::unordered_map<xid::JobId, stats::TimeSec> first_hit;
  std::size_t app_fatal_events = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (times[i] < begin || times[i] >= end) continue;
    if (!crashes[static_cast<std::size_t>(kinds[i])]) continue;
    if (roots[i] == 0) continue;
    ++app_fatal_events;
    if (jobs[i] == xid::kNoJob) continue;
    first_hit.emplace(jobs[i], times[i]);
  }
  return accumulate_jobs(first_hit, app_fatal_events, trace, begin, end);
}

}  // namespace titan::analysis
