// Fig. 10: error frequency of XID 13 (graphics engine exception) --
// user-application-dominated, bursty, deadline-correlated (Observation 6).
#include "bench/common.hpp"

#include "analysis/frequency.hpp"

int main() {
  using namespace titan;
  const auto& study = bench::full_study();
  const auto& frame = bench::full_frame();
  const auto& period = study.config.period;

  bench::print_header("Fig. 10 -- Monthly frequency of XID 13 (graphics engine exception)");
  const auto series = analysis::monthly_frequency(
      frame, xid::ErrorKind::kGraphicsEngineException, period.begin, period.end);
  bench::print_block(render::bar_chart(series.labels(), series.counts));
  std::printf("  total raw XID 13 lines: %llu (reported on every node of a job)\n",
              static_cast<unsigned long long>(series.total()));

  const double dispersion = analysis::daily_dispersion_index(
      frame, xid::ErrorKind::kGraphicsEngineException, period.begin, period.end);
  bench::print_row("daily dispersion index", "bursty (>> 1)", render::fmt_double(dispersion, 1));

  // Deadline weeks vs normal weeks.
  std::uint64_t deadline_events = 0;
  std::uint64_t normal_events = 0;
  std::size_t deadline_days = 0;
  std::size_t normal_days = 0;
  for (stats::TimeSec day = period.begin; day < period.end; day += stats::kSecondsPerDay) {
    (study.deadlines.is_deadline(day) ? deadline_days : normal_days) += 1;
  }
  for (const auto t : frame.times_of(xid::ErrorKind::kGraphicsEngineException)) {
    (study.deadlines.is_deadline(t) ? deadline_events : normal_events) += 1;
  }
  const double deadline_rate = static_cast<double>(deadline_events) /
                               static_cast<double>(std::max<std::size_t>(1, deadline_days));
  const double normal_rate = static_cast<double>(normal_events) /
                             static_cast<double>(std::max<std::size_t>(1, normal_days));
  bench::print_row("XID 13 per day in deadline weeks vs normal weeks",
                   "significantly more in certain weeks",
                   render::fmt_double(deadline_rate, 1) + " vs " +
                       render::fmt_double(normal_rate, 1));

  bool ok = true;
  ok &= bench::check("bursty arrivals (dispersion >= 3)",
                     dispersion >= analysis::paper::kBurstyDispersionAtLeast);
  ok &= bench::check("deadline weeks are hotter (rate ratio > 1.3)",
                     deadline_rate > 1.3 * normal_rate);
  ok &= bench::check("XID 13 is the most frequent XID in the log", [&] {
    const std::size_t xid13 = frame.count_of(xid::ErrorKind::kGraphicsEngineException);
    const std::size_t others = frame.size() - xid13;
    return xid13 > others / 4;
  }());
  return ok ? 0 : 1;
}
