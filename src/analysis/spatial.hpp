// Spatial analyses: cabinet-grid heatmaps (Figs. 3(a), 5, 7, 12, 14),
// cage distributions with all-events vs distinct-cards views (Figs. 3(b),
// 5, 7, 15), and the per-structure breakdown (Fig. 3(c)).
#pragma once

#include <array>

#include "analysis/event_frame.hpp"
#include "stats/histogram.hpp"
#include "topology/machine.hpp"

namespace titan::analysis {

/// Cabinet-grid (kCabinetGridY rows x kCabinetGridX columns) event-count
/// heatmap for one kind.  Grid rows are cab_y, columns cab_x.  Reads the
/// precomputed location column over the kind's CSR slice.
[[nodiscard]] stats::Grid2D cabinet_heatmap(const EventFrame& frame, xid::ErrorKind kind);

/// Cage-position distribution of one kind.
struct CageDistribution {
  std::array<std::uint64_t, topology::kCagesPerCabinet> event_counts{};
  std::array<std::uint64_t, topology::kCagesPerCabinet> distinct_cards{};

  [[nodiscard]] std::uint64_t total_events() const noexcept;
  /// Top-cage excess: events in the top cage / events in the bottom cage
  /// (the paper's thermal-sensitivity signal; > 1 means hotter is worse).
  [[nodiscard]] double top_to_bottom_ratio() const noexcept;
};

/// Counts events per cage and, via the ledger-joined card column, the
/// number of distinct cards that ever raised the kind in each cage
/// ("counting only one DBE error per card ... shows that the trend only
/// gets stronger").  The frame must have been built with the ledger.
[[nodiscard]] CageDistribution cage_distribution(const EventFrame& frame, xid::ErrorKind kind);

/// Per-structure breakdown of ECC events (Fig. 3(c)): counts by decoded
/// memory structure.
struct StructureBreakdown {
  std::array<std::uint64_t, xid::kMemoryStructureCount> counts{};

  [[nodiscard]] std::uint64_t total() const noexcept;
  [[nodiscard]] double share(xid::MemoryStructure s) const noexcept;
};

[[nodiscard]] StructureBreakdown structure_breakdown(const EventFrame& frame,
                                                     xid::ErrorKind kind);

}  // namespace titan::analysis
