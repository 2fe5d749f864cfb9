#include "analysis/retirement_study.hpp"

#include <algorithm>

namespace titan::analysis {

RetirementDelayStudy retirement_delay_study(const EventFrame& frame,
                                            stats::TimeSec accounting_from) {
  return retirement_delay_study(frame, accounting_from, xid::ErrorKind::kDoubleBitError,
                                xid::ErrorKind::kPageRetirement);
}

RetirementDelayStudy retirement_delay_study(const EventFrame& frame,
                                            stats::TimeSec accounting_from,
                                            xid::ErrorKind trigger_kind,
                                            xid::ErrorKind repair_kind) {
  RetirementDelayStudy out;
  const auto dbe_rows = frame.rows_of(trigger_kind);
  const auto ret_rows = frame.rows_of(repair_kind);
  const auto dbe_times = frame.times_of(trigger_kind);
  const auto ret_times = frame.times_of(repair_kind);

  bool have_dbe = false;
  stats::TimeSec last_dbe = 0;
  bool retirement_since_dbe = false;

  // Two-pointer merge over the two CSR slices; comparing row ids
  // reproduces the stream order a whole-stream walk would see.
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < dbe_rows.size() || b < ret_rows.size()) {
    const bool take_dbe =
        b >= ret_rows.size() || (a < dbe_rows.size() && dbe_rows[a] < ret_rows[b]);
    if (take_dbe) {
      const stats::TimeSec t = dbe_times[a++];
      if (t < accounting_from) continue;
      if (have_dbe && !retirement_since_dbe) ++out.dbe_pairs_without_retirement;
      have_dbe = true;
      last_dbe = t;
      retirement_since_dbe = false;
      continue;
    }
    const stats::TimeSec t = ret_times[b++];
    if (t < accounting_from) continue;
    retirement_since_dbe = true;
    if (!have_dbe) {
      ++out.before_any_dbe;
      continue;
    }
    const double delay = static_cast<double>(t - last_dbe);
    out.delays_s.push_back(delay);
    if (delay <= 600.0) {
      ++out.within_10min;
    } else if (delay <= 6.0 * 3600.0) {
      ++out.min10_to_6h;
    } else {
      ++out.beyond_6h;
    }
  }
  return out;
}

}  // namespace titan::analysis
