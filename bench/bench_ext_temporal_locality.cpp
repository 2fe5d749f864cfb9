// Extension bench: temporal locality of failures.
//
// The paper's companion work (lazy checkpointing [32]) rests on failures
// clustering in time.  This bench quantifies that property in the
// campaign's event streams: user-application errors are strongly
// clustered (deadline bursts + job-wide fan-out), the OTB epidemic is
// clustered, and DBEs are close to memoryless -- matching the paper's
// "not bursty in nature" remark for DBEs (Fig. 2 discussion).
#include "bench/common.hpp"

#include "stats/hazard.hpp"
#include "stats/reliability.hpp"

int main() {
  using namespace titan;
  const auto& study = bench::full_study();
  const auto& frame = bench::full_frame();
  const auto& period = study.config.period;

  bench::print_header("Extension -- temporal locality per error family");
  std::printf("  %-28s %10s %12s %8s\n", "stream", "dispersion", "burst-ratio", "KS-exp");
  std::printf("  %-28s %10s %12s %8s\n", "", "(day bins)", "(60 s)", "");

  struct Row {
    const char* label;
    xid::ErrorKind kind;
    double dispersion;
    double ratio;
    double ks;
  };
  std::vector<Row> rows;
  for (const auto& [label, kind] :
       std::vector<std::pair<const char*, xid::ErrorKind>>{
           {"XID 13 (user application)", xid::ErrorKind::kGraphicsEngineException},
           {"Off the bus", xid::ErrorKind::kOffTheBus},
           {"XID 43 (driver)", xid::ErrorKind::kGpuStoppedProcessing},
           {"DBE (XID 48)", xid::ErrorKind::kDoubleBitError},
       }) {
    const auto times = frame.times_of(kind);
    Row row{label, kind, 0.0, 0.0, 0.0};
    row.dispersion = stats::dispersion_of_counts(times, period.begin, period.end,
                                                 stats::kSecondsPerDay);
    // A 60 s window keeps the Poisson baseline well below saturation even
    // for the highest-rate stream (XID 13 at ~0.008 events/s).
    row.ratio = stats::conditional_intensity_ratio(times, period.begin, period.end, 60);
    row.ks = stats::ks_vs_exponential(stats::inter_arrival_seconds({times.begin(), times.end()}));
    rows.push_back(row);
    std::printf("  %-28s %10.2f %12.2f %8.3f\n", label, row.dispersion, row.ratio, row.ks);
  }

  bench::print_row("DBE arrivals", "not bursty (memoryless-like)",
                   "dispersion " + render::fmt_double(rows[3].dispersion, 2));
  bench::print_row("user-application arrivals", "bursty, clustered",
                   "dispersion " + render::fmt_double(rows[0].dispersion, 1) +
                       ", burst-ratio " + render::fmt_double(rows[0].ratio, 1));

  bool ok = true;
  ok &= bench::check("XID 13 is strongly clustered (dispersion >= 5, ratio >= 2)",
                     rows[0].dispersion >= 5.0 && rows[0].ratio >= 2.0);
  ok &= bench::check("DBEs are near-memoryless (dispersion <= 2, KS <= 0.15)",
                     rows[3].dispersion <= 2.0 && rows[3].ks <= 0.15);
  ok &= bench::check("driver XID 43 sits between (less clustered than XID 13)",
                     rows[2].dispersion < rows[0].dispersion);
  ok &= bench::check("mixture stream departs from exponential (XID 13 KS > DBE KS)",
                     rows[0].ks > rows[3].ks);
  return ok ? 0 : 1;
}
