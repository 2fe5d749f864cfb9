#include "analysis/reliability_report.hpp"

namespace titan::analysis {

namespace {

/// Fold the snapshot-side counters (shared by the span and frame paths).
void add_snapshot_counters(SmiConsoleComparison& out, const logsim::SmiSnapshot& snapshot) {
  out.smi_dbe_count = snapshot.fleet_dbe_total();
  for (const auto& r : snapshot.records) {
    if (r.dbe_total == 0) continue;
    ++out.cards_with_dbe;
    if (r.dbe_total > r.sbe_total) ++out.cards_dbe_exceeds_sbe;
  }
}

[[nodiscard]] MtbfReport make_mtbf_report(stats::MtbfEstimate measured,
                                          double datasheet_fleet_dbe_per_hour) {
  MtbfReport out;
  out.measured = measured;
  out.datasheet_mtbf_hours =
      datasheet_fleet_dbe_per_hour > 0.0 ? 1.0 / datasheet_fleet_dbe_per_hour : 0.0;
  out.improvement_factor = out.datasheet_mtbf_hours > 0.0
                               ? out.measured.mtbf_hours / out.datasheet_mtbf_hours
                               : 0.0;
  return out;
}

}  // namespace

SmiConsoleComparison smi_console_comparison(const EventFrame& frame,
                                            const logsim::SmiSnapshot& snapshot) {
  SmiConsoleComparison out;
  out.console_dbe_count = frame.count_of(xid::ErrorKind::kDoubleBitError);
  add_snapshot_counters(out, snapshot);
  return out;
}

MtbfReport mtbf_report(const EventFrame& frame, stats::TimeSec begin, stats::TimeSec end,
                       double datasheet_fleet_dbe_per_hour) {
  const auto times = frame.times_of(xid::ErrorKind::kDoubleBitError);
  return make_mtbf_report(stats::estimate_mtbf({times.begin(), times.end()}, begin, end),
                          datasheet_fleet_dbe_per_hour);
}

}  // namespace titan::analysis
