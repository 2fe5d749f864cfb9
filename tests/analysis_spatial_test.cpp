#include "analysis/spatial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "analysis/retirement_study.hpp"

namespace titan::analysis {
namespace {

using parse::ParsedEvent;
using xid::ErrorKind;

EventFrame frame_of(const std::vector<ParsedEvent>& events,
                    const gpu::FleetLedger* ledger = nullptr) {
  return EventFrame::build(std::span<const ParsedEvent>{events}, ledger);
}

ParsedEvent ev(topology::NodeLocation loc, ErrorKind kind = ErrorKind::kDoubleBitError,
               stats::TimeSec t = 1000,
               xid::MemoryStructure structure = xid::MemoryStructure::kNone) {
  ParsedEvent e;
  e.time = t;
  e.node = topology::node_id(loc);
  e.kind = kind;
  e.structure = structure;
  return e;
}

TEST(Spatial, HeatmapPlacesEventsByCabinet) {
  const std::vector<ParsedEvent> events{
      ev({3, 2, 0, 0, 0}),
      ev({3, 2, 1, 4, 1}),
      ev({10, 7, 2, 0, 0}),
      ev({0, 0, 0, 0, 0}, ErrorKind::kOffTheBus),  // wrong kind: ignored
  };
  const auto grid = cabinet_heatmap(frame_of(events), ErrorKind::kDoubleBitError);
  EXPECT_EQ(grid.rows(), 8U);
  EXPECT_EQ(grid.cols(), 25U);
  EXPECT_DOUBLE_EQ(grid.at(2, 3), 2.0);
  EXPECT_DOUBLE_EQ(grid.at(7, 10), 1.0);
  EXPECT_DOUBLE_EQ(grid.total(), 3.0);
}

TEST(Spatial, CageDistributionCountsAndDistinctCards) {
  gpu::FleetLedger ledger{static_cast<std::size_t>(topology::kNodeSlots)};
  const auto node_a = topology::node_id({1, 1, 2, 3, 0});  // cage 2
  const auto node_b = topology::node_id({2, 1, 2, 5, 1});  // cage 2
  const auto node_c = topology::node_id({3, 1, 0, 3, 0});  // cage 0
  ledger.install(node_a, 100, 0);
  ledger.install(node_b, 200, 0);
  ledger.install(node_c, 300, 0);

  const std::vector<ParsedEvent> events{
      ev(topology::locate(node_a)), ev(topology::locate(node_a)),  // same card twice
      ev(topology::locate(node_b)), ev(topology::locate(node_c)),
  };
  const auto dist = cage_distribution(frame_of(events, &ledger), ErrorKind::kDoubleBitError);
  EXPECT_EQ(dist.event_counts[2], 3U);
  EXPECT_EQ(dist.event_counts[0], 1U);
  EXPECT_EQ(dist.distinct_cards[2], 2U);  // card 100 counted once
  EXPECT_EQ(dist.distinct_cards[0], 1U);
  EXPECT_EQ(dist.total_events(), 4U);
  EXPECT_DOUBLE_EQ(dist.top_to_bottom_ratio(), 3.0);
}

TEST(Spatial, TopToBottomRatioEdgeCases) {
  CageDistribution dist;
  EXPECT_DOUBLE_EQ(dist.top_to_bottom_ratio(), 1.0);  // no events anywhere
  dist.event_counts[2] = 5;
  EXPECT_TRUE(std::isinf(dist.top_to_bottom_ratio()));
}

TEST(Spatial, StructureBreakdownShares) {
  std::vector<ParsedEvent> events;
  for (int i = 0; i < 86; ++i) {
    events.push_back(ev({0, 0, 0, 1, 0}, ErrorKind::kDoubleBitError, 1000 + i,
                        xid::MemoryStructure::kDeviceMemory));
  }
  for (int i = 0; i < 14; ++i) {
    events.push_back(ev({0, 0, 0, 1, 0}, ErrorKind::kDoubleBitError, 5000 + i,
                        xid::MemoryStructure::kRegisterFile));
  }
  const auto breakdown = structure_breakdown(frame_of(events), ErrorKind::kDoubleBitError);
  EXPECT_EQ(breakdown.total(), 100U);
  EXPECT_DOUBLE_EQ(breakdown.share(xid::MemoryStructure::kDeviceMemory), 0.86);
  EXPECT_DOUBLE_EQ(breakdown.share(xid::MemoryStructure::kRegisterFile), 0.14);
  EXPECT_DOUBLE_EQ(breakdown.share(xid::MemoryStructure::kL2Cache), 0.0);
}

TEST(RetirementStudy, BucketsDelaysLikeFig8) {
  using xid::ErrorKind;
  std::vector<ParsedEvent> events;
  const auto push = [&](stats::TimeSec t, ErrorKind k) {
    ParsedEvent e;
    e.time = t;
    e.node = 100;
    e.kind = k;
    events.push_back(e);
  };
  push(1000, ErrorKind::kDoubleBitError);
  push(1300, ErrorKind::kPageRetirement);           // 300 s: within 10 min
  push(10000, ErrorKind::kDoubleBitError);
  push(10000 + 3600, ErrorKind::kPageRetirement);   // 1 h: 10 min .. 6 h
  push(100000, ErrorKind::kDoubleBitError);
  push(100000 + 86400, ErrorKind::kPageRetirement); // 1 day: beyond 6 h
  push(400000, ErrorKind::kDoubleBitError);         // pair without retirement
  push(500000, ErrorKind::kDoubleBitError);

  const auto study = retirement_delay_study(frame_of(events), 0);
  EXPECT_EQ(study.within_10min, 1U);
  EXPECT_EQ(study.min10_to_6h, 1U);
  EXPECT_EQ(study.beyond_6h, 1U);
  EXPECT_EQ(study.before_any_dbe, 0U);
  EXPECT_EQ(study.dbe_pairs_without_retirement, 1U);
  EXPECT_EQ(study.total_retirements(), 3U);
}

TEST(RetirementStudy, AccountingWindowExcludesEarlyDbes) {
  std::vector<ParsedEvent> events;
  ParsedEvent dbe;
  dbe.time = 100;
  dbe.kind = xid::ErrorKind::kDoubleBitError;
  events.push_back(dbe);
  ParsedEvent ret;
  ret.time = 2000;
  ret.kind = xid::ErrorKind::kPageRetirement;
  events.push_back(ret);
  // With accounting_from after the DBE, the retirement has no prior DBE.
  const auto study = retirement_delay_study(frame_of(events), 1000);
  EXPECT_EQ(study.before_any_dbe, 1U);
  EXPECT_EQ(study.total_retirements(), 1U);
}

}  // namespace
}  // namespace titan::analysis
