#include "analysis/frequency.hpp"

#include <stdexcept>
#include <vector>

#include "stats/descriptive.hpp"

namespace titan::analysis {

stats::MonthlySeries monthly_frequency(const EventFrame& frame, xid::ErrorKind kind,
                                       stats::TimeSec begin, stats::TimeSec end) {
  if (end <= begin) throw std::invalid_argument{"monthly_counts: empty window"};
  stats::MonthlySeries out;
  out.origin = begin;
  const int n_months = stats::month_index(end - 1, begin) + 1;
  out.counts.assign(static_cast<std::size_t>(n_months), 0);
  // Bucket = precomputed absolute month ordinal minus the window origin's:
  // exactly stats::month_index(t, begin), without the per-event civil-date
  // decode stats::monthly_counts pays.
  const int origin_ord = stats::month_ordinal(stats::to_civil(begin).date);
  const auto rows = frame.rows_of(kind);
  const auto times = frame.times_of(kind);
  const auto months = frame.month_ordinals();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (times[i] < begin || times[i] >= end) continue;
    out.counts[static_cast<std::size_t>(months[rows[i]] - origin_ord)] += 1;
  }
  return out;
}

stats::MtbfEstimate kind_mtbf(const EventFrame& frame, xid::ErrorKind kind, stats::TimeSec begin,
                              stats::TimeSec end) {
  const auto times = frame.times_of(kind);
  return stats::estimate_mtbf({times.begin(), times.end()}, begin, end);
}

double daily_dispersion_index(const EventFrame& frame, xid::ErrorKind kind, stats::TimeSec begin,
                              stats::TimeSec end) {
  if (end <= begin) return 0.0;
  const auto days = static_cast<std::size_t>((end - begin + stats::kSecondsPerDay - 1) /
                                             stats::kSecondsPerDay);
  std::vector<double> daily(days, 0.0);
  for (const auto t : frame.times_of(kind)) {
    if (t < begin || t >= end) continue;
    daily[static_cast<std::size_t>((t - begin) / stats::kSecondsPerDay)] += 1.0;
  }
  const double m = stats::mean(daily);
  if (m == 0.0) return 0.0;
  return stats::variance(daily) / m;
}

}  // namespace titan::analysis
