#include "topology/machine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <set>
#include <string>

namespace titan::topology {
namespace {

TEST(Machine, ConstantsMatchPaper) {
  EXPECT_EQ(kCabinets, 200);          // "200 such cabinets"
  EXPECT_EQ(kCabinetGridX, 25);       // "25 rows"
  EXPECT_EQ(kCabinetGridY, 8);        // "8 columns"
  EXPECT_EQ(kCagesPerCabinet, 3);     // "each cabinet has three cages"
  EXPECT_EQ(kBladesPerCage, 8);       // "each cage has eight such blades"
  EXPECT_EQ(kNodesPerBlade, 4);       // "four nodes comprise one blade"
  EXPECT_EQ(kComputeNodes, 18688);    // "18,688 NVIDIA Tesla K20X GPUs"
}

TEST(Machine, LocateNodeIdRoundTrip) {
  for (NodeId id = 0; id < kNodeSlots; ++id) {
    const NodeLocation loc = locate(id);
    ASSERT_TRUE(loc.valid());
    ASSERT_EQ(node_id(loc), id);
  }
}

TEST(Machine, LocationsAreUnique) {
  std::set<NodeLocation> seen;
  for (NodeId id = 0; id < kNodeSlots; id += 7) {
    EXPECT_TRUE(seen.insert(locate(id)).second);
  }
}

TEST(Machine, GeminiPairsShareRouter) {
  // "One Gemini router is shared by two nodes."
  for (NodeId id = 0; id < kNodeSlots; id += 2) {
    EXPECT_EQ(gemini_index(id), gemini_index(id + 1));
    if (id + 2 < kNodeSlots) {
      EXPECT_NE(gemini_index(id), gemini_index(id + 2));
    }
  }
}

TEST(Machine, ServiceNodeCountIsExact) {
  EXPECT_EQ(compute_node_count(), kComputeNodes);
}

TEST(Machine, ServiceNodesAreWholeBlades) {
  // If one node of a blade is a service node, all four must be.
  for (NodeId id = 0; id < kNodeSlots; id += kNodesPerBlade) {
    const bool first = is_service_node(id);
    for (int i = 1; i < kNodesPerBlade; ++i) {
      EXPECT_EQ(is_service_node(id + i), first);
    }
  }
}

TEST(Machine, CnameFormat) {
  NodeLocation loc;
  loc.cab_x = 12;
  loc.cab_y = 3;
  loc.cage = 1;
  loc.slot = 4;
  loc.node = 2;
  EXPECT_EQ(cname(loc), "c12-3c1s4n2");
}

TEST(Machine, CnameRoundTripAllNodes) {
  for (NodeId id = 0; id < kNodeSlots; id += 11) {
    const auto parsed = parse_cname(cname(id));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(node_id(*parsed), id);
  }
}

/// The printf format append_cname replaced, cut to kMaxCnameChars as its
/// buffer cut it.
std::string snprintf_cname(const NodeLocation& loc) {
  char buf[kMaxCnameChars + 1];
  std::snprintf(buf, sizeof(buf), "c%d-%dc%ds%dn%d", loc.cab_x, loc.cab_y, loc.cage, loc.slot,
                loc.node);
  return buf;
}

TEST(Machine, CnameMatchesSnprintfForEveryNode) {
  for (NodeId id = 0; id < kNodeSlots; ++id) {
    std::string appended = "prefix ";
    append_cname(appended, locate(id));
    ASSERT_EQ(appended, "prefix " + snprintf_cname(locate(id))) << id;
    ASSERT_EQ(cname(id), snprintf_cname(locate(id))) << id;
  }
}

TEST(Machine, OutOfRangeCnameIsCutLikeSnprintf) {
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kMax = std::numeric_limits<int>::max();
  for (const auto& loc : {NodeLocation{kMin, kMin, kMin, kMin, kMin},
                          NodeLocation{kMax, kMax, kMax, kMax, kMax},
                          NodeLocation{-1, 1234, -56, 7, 890123}}) {
    EXPECT_EQ(cname(loc), snprintf_cname(loc));
    EXPECT_LE(cname(loc).size(), kMaxCnameChars);
  }
}

class BadCname : public ::testing::TestWithParam<const char*> {};

TEST_P(BadCname, Rejected) { EXPECT_FALSE(parse_cname(GetParam()).has_value()); }

INSTANTIATE_TEST_SUITE_P(Malformed, BadCname,
                         ::testing::Values("", "c", "c12", "c12-3", "c12-3c1", "c12-3c1s4",
                                           "c12-3c1s4n", "c25-0c0s0n0", "c0-8c0s0n0",
                                           "c0-0c3s0n0", "c0-0c0s8n0", "c0-0c0s0n4",
                                           "x12-3c1s4n2", "c12-3c1s4n2x", "c-1-3c1s4n2",
                                           "c12_3c1s4n2"));

TEST(Machine, CabinetIndexDense) {
  std::set<int> cabinets;
  for (NodeId id = 0; id < kNodeSlots; ++id) {
    cabinets.insert(locate(id).cabinet_index());
  }
  EXPECT_EQ(cabinets.size(), static_cast<std::size_t>(kCabinets));
  EXPECT_EQ(*cabinets.begin(), 0);
  EXPECT_EQ(*cabinets.rbegin(), kCabinets - 1);
}

}  // namespace
}  // namespace titan::topology
