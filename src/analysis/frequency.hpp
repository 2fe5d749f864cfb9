// Monthly frequency analyses (Figs. 2, 4, 6, 9, 10, 11) and MTBF
// reporting (Observation 1).
#pragma once

#include "analysis/event_frame.hpp"
#include "stats/reliability.hpp"

namespace titan::analysis {

/// Monthly counts of one error kind over the study window: a single pass
/// over the kind's CSR slice, bucketing with the precomputed month-ordinal
/// column.
[[nodiscard]] stats::MonthlySeries monthly_frequency(const EventFrame& frame, xid::ErrorKind kind,
                                                     stats::TimeSec begin, stats::TimeSec end);

/// MTBF of one error kind over the window.
[[nodiscard]] stats::MtbfEstimate kind_mtbf(const EventFrame& frame, xid::ErrorKind kind,
                                            stats::TimeSec begin, stats::TimeSec end);

/// Burstiness diagnostic used for Observation 6: the index of dispersion
/// of daily counts (variance / mean; 1 for a Poisson process, large for
/// bursty arrivals).
[[nodiscard]] double daily_dispersion_index(const EventFrame& frame, xid::ErrorKind kind,
                                            stats::TimeSec begin, stats::TimeSec end);

}  // namespace titan::analysis
