#include "analysis/spatial.hpp"

#include <limits>
#include <numeric>
#include <unordered_set>

namespace titan::analysis {

stats::Grid2D cabinet_heatmap(const EventFrame& frame, xid::ErrorKind kind) {
  stats::Grid2D grid{static_cast<std::size_t>(topology::kCabinetGridY),
                     static_cast<std::size_t>(topology::kCabinetGridX)};
  const auto locations = frame.locations();
  for (const auto row : frame.rows_of(kind)) {
    const auto& loc = locations[row];
    grid.add(static_cast<std::size_t>(loc.cab_y), static_cast<std::size_t>(loc.cab_x));
  }
  return grid;
}

std::uint64_t CageDistribution::total_events() const noexcept {
  return std::accumulate(event_counts.begin(), event_counts.end(), std::uint64_t{0});
}

double CageDistribution::top_to_bottom_ratio() const noexcept {
  const auto bottom = event_counts.front();
  const auto top = event_counts.back();
  if (bottom == 0) return top > 0 ? std::numeric_limits<double>::infinity() : 1.0;
  return static_cast<double>(top) / static_cast<double>(bottom);
}

CageDistribution cage_distribution(const EventFrame& frame, xid::ErrorKind kind) {
  CageDistribution out;
  std::array<std::unordered_set<xid::CardId>, topology::kCagesPerCabinet> cards;
  const auto locations = frame.locations();
  const auto joined = frame.cards();
  for (const auto row : frame.rows_of(kind)) {
    const auto cage = static_cast<std::size_t>(locations[row].cage);
    ++out.event_counts[cage];
    const xid::CardId card = joined[row];
    if (card != xid::kInvalidCard) cards[cage].insert(card);
  }
  for (std::size_t c = 0; c < cards.size(); ++c) {
    out.distinct_cards[c] = cards[c].size();
  }
  return out;
}

std::uint64_t StructureBreakdown::total() const noexcept {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

double StructureBreakdown::share(xid::MemoryStructure s) const noexcept {
  const auto t = total();
  if (t == 0) return 0.0;
  return static_cast<double>(counts[static_cast<std::size_t>(s)]) / static_cast<double>(t);
}

StructureBreakdown structure_breakdown(const EventFrame& frame, xid::ErrorKind kind) {
  StructureBreakdown out;
  const auto structures = frame.structures();
  for (const auto row : frame.rows_of(kind)) {
    ++out.counts[static_cast<std::size_t>(structures[row])];
  }
  return out;
}

}  // namespace titan::analysis
