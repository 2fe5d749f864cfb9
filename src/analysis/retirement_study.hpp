// The DBE / ECC-page-retirement inter-arrival study (Fig. 8,
// Observation 5).
//
// For each retirement (XID 63), measure the delay since the last DBE on
// the whole machine and bucket it as the paper does: within 10 minutes
// (the driver's fast retirement after the DBE itself), 10 minutes..6
// hours, and beyond (the two-SBE-same-page path).  Also count successive
// DBE pairs with no retirement in between -- the paper's logging puzzle.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/event_frame.hpp"
#include "stats/histogram.hpp"

namespace titan::analysis {

struct RetirementDelayStudy {
  std::uint64_t within_10min = 0;
  std::uint64_t min10_to_6h = 0;
  std::uint64_t beyond_6h = 0;
  std::uint64_t before_any_dbe = 0;  ///< retirement with no prior DBE at all
  /// Successive DBE pairs with no retirement logged between them.
  std::uint64_t dbe_pairs_without_retirement = 0;
  /// Raw delays (seconds) since the last DBE, one per retirement.
  std::vector<double> delays_s;

  [[nodiscard]] std::uint64_t total_retirements() const noexcept {
    return within_10min + min10_to_6h + beyond_6h + before_any_dbe;
  }
};

/// Only DBEs occurring after `accounting_from` count ("DBE occurrences
/// happening only after the period Jan'2014 are accounted toward this
/// analysis"); pass the new-driver date.  Merge-walks only the DBE and
/// retirement CSR slices (by row id, so stream order -- and hence every
/// tie-break -- is preserved) instead of scanning the whole stream.
[[nodiscard]] RetirementDelayStudy retirement_delay_study(const EventFrame& frame,
                                                          stats::TimeSec accounting_from);
/// Generalized kernel for fleets whose memory-repair record is not XID 63
/// (e.g. Ampere row-remapping): `trigger_kind` plays the DBE role,
/// `repair_kind` the retirement role.  The two-argument overload forwards
/// here with the paper's (kDoubleBitError, kPageRetirement) pair.
[[nodiscard]] RetirementDelayStudy retirement_delay_study(const EventFrame& frame,
                                                          stats::TimeSec accounting_from,
                                                          xid::ErrorKind trigger_kind,
                                                          xid::ErrorKind repair_kind);

}  // namespace titan::analysis
