#include "sched/allocator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "topology/torus.hpp"

namespace titan::sched {
namespace {

using topology::NodeId;

TEST(Allocator, ProductionCapacityMatchesComputeNodes) {
  const auto alloc = TorusAllocator::production();
  EXPECT_EQ(alloc.total_nodes(), static_cast<std::size_t>(topology::kComputeNodes));
  EXPECT_EQ(alloc.free_nodes(), alloc.total_nodes());
}

TEST(Allocator, AllocateReturnsRequestedCount) {
  auto alloc = TorusAllocator::production();
  const auto nodes = alloc.allocate(100);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(nodes->size(), 100U);
  // Nodes are unique and never service nodes.
  std::set<NodeId> unique(nodes->begin(), nodes->end());
  EXPECT_EQ(unique.size(), 100U);
  for (const NodeId n : *nodes) EXPECT_FALSE(topology::is_service_node(n));
}

TEST(Allocator, ZeroNodeRequest) {
  auto alloc = TorusAllocator::production();
  const auto nodes = alloc.allocate(0);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_TRUE(nodes->empty());
}

TEST(Allocator, OversizedRequestFails) {
  auto alloc = TorusAllocator::production();
  EXPECT_FALSE(alloc.allocate(alloc.total_nodes() + 1).has_value());
}

TEST(Allocator, WholeMachineAllocatable) {
  auto alloc = TorusAllocator::production();
  const auto nodes = alloc.allocate(alloc.total_nodes());
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(nodes->size(), alloc.total_nodes());
  EXPECT_EQ(alloc.free_nodes(), 0U);
}

TEST(Allocator, ReleaseRestoresCapacity) {
  auto alloc = TorusAllocator::production();
  const auto a = alloc.allocate(500);
  ASSERT_TRUE(a.has_value());
  const auto before = alloc.free_nodes();
  alloc.release(*a);
  EXPECT_EQ(alloc.free_nodes(), before + 500);
  EXPECT_EQ(alloc.free_nodes(), alloc.total_nodes());
}

TEST(Allocator, OddRequestReservesWholeRouter) {
  auto alloc = TorusAllocator::production();
  const auto nodes = alloc.allocate(3);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(nodes->size(), 3U);
  // 2 routers reserved -> 4 nodes leave the free pool.
  EXPECT_EQ(alloc.free_nodes(), alloc.total_nodes() - 4);
  alloc.release(*nodes);
  EXPECT_EQ(alloc.free_nodes(), alloc.total_nodes());
}

TEST(Allocator, NoDoubleAllocation) {
  auto alloc = TorusAllocator::production();
  const auto a = alloc.allocate(1000);
  const auto b = alloc.allocate(1000);
  ASSERT_TRUE(a && b);
  std::set<NodeId> seen(a->begin(), a->end());
  for (const NodeId n : *b) EXPECT_FALSE(seen.contains(n)) << n;
}

TEST(Allocator, LargeJobSpansAlternatingCabinets) {
  // The Fig. 12 signature: a contiguous torus allocation of a large job
  // concentrates in even (or odd) cabinets before spilling to the other
  // parity arm.
  auto alloc = TorusAllocator::production();
  const auto nodes = alloc.allocate(2000);
  ASSERT_TRUE(nodes.has_value());
  int even = 0;
  int odd = 0;
  for (const NodeId n : *nodes) {
    (topology::locate(n).cab_x % 2 == 0 ? even : odd) += 1;
  }
  // With folded cabling, one parity dominates heavily.
  EXPECT_GT(std::max(even, odd), 4 * std::min(even, odd));
}

TEST(Allocator, HeldNodesNotHandedOut) {
  auto alloc = TorusAllocator::production();
  // Hold the first 32 compute nodes.
  std::vector<NodeId> held;
  for (NodeId n = 0; n < topology::kNodeSlots && held.size() < 32; ++n) {
    if (!topology::is_service_node(n)) {
      alloc.hold_node(n);
      held.push_back(n);
    }
  }
  const auto nodes = alloc.allocate(alloc.free_nodes());
  ASSERT_TRUE(nodes.has_value());
  const std::set<NodeId> got(nodes->begin(), nodes->end());
  for (const NodeId n : held) EXPECT_FALSE(got.contains(n));
}

TEST(Allocator, UnholdRestores) {
  auto alloc = TorusAllocator::production();
  const auto total = alloc.free_nodes();
  NodeId target = 0;
  while (topology::is_service_node(target)) ++target;
  alloc.hold_node(target);
  EXPECT_EQ(alloc.free_nodes(), total - 1);
  alloc.unhold_node(target);
  EXPECT_EQ(alloc.free_nodes(), total);
  // Idempotent.
  alloc.unhold_node(target);
  EXPECT_EQ(alloc.free_nodes(), total);
}

TEST(Allocator, CoolCagePolicyPrefersLowerCages) {
  auto cool = TorusAllocator::production(PlacementPolicy::kCoolCageFirst);
  const auto nodes = cool.allocate(4000);
  ASSERT_TRUE(nodes.has_value());
  std::array<int, 3> per_cage{};
  for (const NodeId n : *nodes) {
    per_cage[static_cast<std::size_t>(topology::locate(n).cage)] += 1;
  }
  // 4000 nodes fit entirely in cage 0 (6400-ish compute nodes there).
  EXPECT_EQ(per_cage[1] + per_cage[2], 0);
  EXPECT_EQ(per_cage[0], 4000);
}

TEST(Allocator, OutOfRangeNodeThrows) {
  auto alloc = TorusAllocator::production();
  const auto job = alloc.allocate(10);
  ASSERT_TRUE(job.has_value());
  const auto free = alloc.free_nodes();
  for (const NodeId bad : {topology::kInvalidNode, topology::kNodeSlots,
                           static_cast<NodeId>(topology::kNodeSlots + 5)}) {
    EXPECT_THROW(alloc.hold_node(bad), std::out_of_range) << bad;
    EXPECT_THROW(alloc.unhold_node(bad), std::out_of_range) << bad;
    EXPECT_THROW(alloc.release({bad}), std::out_of_range) << bad;
    // A bad id anywhere in the list frees nothing, not even the valid nodes.
    std::vector<NodeId> mixed(job->begin(), job->end());
    mixed.push_back(bad);
    EXPECT_THROW(alloc.release(NodeList{mixed}), std::out_of_range) << bad;
    EXPECT_EQ(alloc.free_nodes(), free) << bad;
  }
  alloc.release(*job);
  EXPECT_EQ(alloc.free_nodes(), alloc.total_nodes());
}

TEST(Allocator, AllocationIsRunsOfTheSearchOrder) {
  auto alloc = TorusAllocator::production();
  const auto nodes = alloc.allocate(1000);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(nodes->order(), alloc.order());
  EXPECT_EQ(nodes->run_count(), 1U);  // an empty machine: one contiguous window
  EXPECT_EQ(nodes->run(0).first, 0U);
  EXPECT_EQ(nodes->run(0).length, 1000U);
  std::size_t i = 0;
  for (const NodeId n : *nodes) {
    EXPECT_EQ(n, alloc.order()->node(i));
    EXPECT_EQ((*nodes)[i], n);
    ++i;
  }
  EXPECT_EQ(i, nodes->size());
  EXPECT_EQ(nodes->front(), alloc.order()->node(0));
}

TEST(Allocator, ReleaseOfAListInAnotherOrderFreesNodeByNode) {
  auto alloc = TorusAllocator::production();
  const auto job = alloc.allocate(301);
  ASSERT_TRUE(job.has_value());
  // The same nodes in NodeId order: freed one by one, whole routers.
  const NodeList by_id{std::vector<NodeId>(job->begin(), job->end())};
  EXPECT_EQ(by_id, *job);
  EXPECT_EQ(by_id.order(), nullptr);
  alloc.release(by_id);
  EXPECT_EQ(alloc.free_nodes(), alloc.total_nodes());
}

TEST(Allocator, RunPastTheSearchOrderThrows) {
  auto alloc = TorusAllocator::production();
  const auto job = alloc.allocate(10);
  ASSERT_TRUE(job.has_value());
  NodeList bad = *job;
  bad.append(static_cast<std::uint32_t>(alloc.order()->size()) - 1, 2);
  EXPECT_THROW(alloc.release(bad), std::out_of_range);
  EXPECT_EQ(alloc.free_nodes(), alloc.total_nodes() - 10);  // nothing freed
  alloc.release(*job);
  EXPECT_EQ(alloc.free_nodes(), alloc.total_nodes());
}

TEST(NodeList, RunsIndexAndIterateInListOrder) {
  const NodeList list{7, 8, 9, 3, 4, 20, 10, 11, 12, 13};
  ASSERT_EQ(list.run_count(), 4U);  // 7..9, 3..4, 20, 10..13
  EXPECT_EQ(list.run(1).first, 3U);
  EXPECT_EQ(list.run(1).length, 2U);
  EXPECT_EQ(list.size(), 10U);
  EXPECT_EQ(list.front(), 7);
  const std::vector<NodeId> expanded(list.begin(), list.end());
  EXPECT_EQ(expanded, (std::vector<NodeId>{7, 8, 9, 3, 4, 20, 10, 11, 12, 13}));
  for (std::size_t i = 0; i < expanded.size(); ++i) EXPECT_EQ(list[i], expanded[i]) << i;
  EXPECT_TRUE(NodeList{}.empty());
  EXPECT_FALSE(list == (NodeList{7, 8, 9}));

  // A fragmented machine: the scattered fill hands out many runs.
  auto alloc = TorusAllocator::production();
  std::vector<NodeList> pairs;
  while (alloc.free_nodes() >= 2) pairs.push_back(*alloc.allocate(2));
  for (std::size_t i = 0; i < pairs.size(); i += 3) alloc.release(pairs[i]);
  const auto scattered = alloc.allocate(500);
  ASSERT_TRUE(scattered.has_value());
  ASSERT_GT(scattered->run_count(), 100U);
  std::size_t i = 0;
  for (const NodeId n : *scattered) EXPECT_EQ((*scattered)[i++], n);
  EXPECT_EQ(i, 500U);
}

TEST(Allocator, RejectsBadMask) {
  const std::vector<bool> wrong_size(10, true);
  EXPECT_THROW(TorusAllocator{wrong_size}, std::invalid_argument);
}

}  // namespace
}  // namespace titan::sched
