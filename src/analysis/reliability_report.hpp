// Cross-validation of console logs against nvidia-smi (Observations 1-2).
#pragma once

#include <cstdint>

#include "analysis/event_frame.hpp"
#include "logsim/smi.hpp"
#include "stats/reliability.hpp"

namespace titan::analysis {

struct SmiConsoleComparison {
  std::uint64_t console_dbe_count = 0;   ///< lines the SMW recorded
  std::uint64_t smi_dbe_count = 0;       ///< InfoROM aggregates (lossy)
  /// Cards whose smi counters show more DBEs than SBEs -- the logical
  /// inconsistency the paper flags ("the theoretical probability of a
  /// double bit error happening is lower than ... single bit error").
  std::uint64_t cards_dbe_exceeds_sbe = 0;
  std::uint64_t cards_with_dbe = 0;

  [[nodiscard]] double smi_undercount_fraction() const noexcept {
    if (console_dbe_count == 0) return 0.0;
    return 1.0 - static_cast<double>(smi_dbe_count) / static_cast<double>(console_dbe_count);
  }
};

/// The console DBE count is an O(1) CSR lookup.
[[nodiscard]] SmiConsoleComparison smi_console_comparison(const EventFrame& frame,
                                                          const logsim::SmiSnapshot& snapshot);

/// Observation 1 framing: measured DBE MTBF vs the much more pessimistic
/// estimate a vendor datasheet FIT budget would give for this fleet.
struct MtbfReport {
  stats::MtbfEstimate measured;
  double datasheet_mtbf_hours = 0.0;
  double improvement_factor = 0.0;  ///< measured / datasheet
};

/// `datasheet_fleet_dbe_per_hour` is the vendor-budget fleet-wide DBE
/// rate; the default models a conservative per-card uncorrectable-error
/// FIT allocation that predicts roughly one fleet DBE per ~2 days.
[[nodiscard]] MtbfReport mtbf_report(const EventFrame& frame, stats::TimeSec begin,
                                     stats::TimeSec end,
                                     double datasheet_fleet_dbe_per_hour = 1.0 / 48.0);

}  // namespace titan::analysis
