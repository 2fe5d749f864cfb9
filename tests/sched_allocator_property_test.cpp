// Property tests: the allocator must preserve its invariants under long
// random sequences of allocate / release / hold / unhold operations, and
// must place every job exactly as the linear-scan reference allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sched/allocator.hpp"
#include "stats/rng.hpp"
#include "topology/torus.hpp"

namespace titan::sched {

void PrintTo(PlacementPolicy policy, std::ostream* os) {
  *os << (policy == PlacementPolicy::kTorusOrder ? "kTorusOrder" : "kCoolCageFirst");
}

namespace {

std::vector<topology::NodeId> expand(const NodeList& nodes) {
  return {nodes.begin(), nodes.end()};
}

std::optional<std::vector<topology::NodeId>> expand(const std::optional<NodeList>& nodes) {
  if (!nodes) return std::nullopt;
  return expand(*nodes);
}

class AllocatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorFuzz, InvariantsHoldUnderRandomOps) {
  stats::Rng rng{GetParam()};
  auto alloc = TorusAllocator::production();
  const std::size_t total = alloc.total_nodes();

  std::vector<NodeList> live;
  std::set<topology::NodeId> allocated;
  std::set<topology::NodeId> held;

  for (int step = 0; step < 400; ++step) {
    const double action = rng.uniform();
    if (action < 0.5) {
      // Allocate a random size (skewed small, occasionally huge).
      const std::size_t request =
          rng.bernoulli(0.1) ? 1 + rng.below(8000) : 1 + rng.below(64);
      const auto nodes = alloc.allocate(request);
      if (nodes) {
        ASSERT_EQ(nodes->size(), request);
        for (const auto n : *nodes) {
          ASSERT_FALSE(topology::is_service_node(n));
          ASSERT_FALSE(held.contains(n)) << "held node handed out";
          ASSERT_TRUE(allocated.insert(n).second) << "double allocation of node " << n;
        }
        live.push_back(std::move(*nodes));
      } else {
        // Refusal implies genuinely insufficient capacity for the request.
        ASSERT_GT(request, alloc.free_nodes());
      }
    } else if (action < 0.85 && !live.empty()) {
      // Release a random live job.
      const std::size_t idx = rng.below(live.size());
      for (const auto n : live[idx]) allocated.erase(n);
      alloc.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (action < 0.95) {
      // Hold a random currently-free compute node.
      const auto node = static_cast<topology::NodeId>(rng.below(topology::kNodeSlots));
      if (!topology::is_service_node(node) && !allocated.contains(node)) {
        alloc.hold_node(node);
        held.insert(node);
      }
    } else if (!held.empty()) {
      const auto node = *held.begin();
      alloc.unhold_node(node);
      held.erase(node);
    }
    // Conservation: free nodes never exceed capacity minus live usage.
    ASSERT_LE(alloc.free_nodes(), total);
  }

  // Drain everything; capacity must be fully restored (minus holds).
  for (const auto& job : live) alloc.release(job);
  for (const auto n : held) alloc.unhold_node(n);
  EXPECT_EQ(alloc.free_nodes(), total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// The linear-scan allocator TorusAllocator replaced, kept as its oracle:
// same placement policy, but a find_contiguous that visits every router in
// search order and a release that recomputes torus coordinates per node.
class ReferenceAllocator {
 public:
  ReferenceAllocator(const std::vector<bool>& usable, PlacementPolicy policy)
      : geminis_(static_cast<std::size_t>(topology::kGeminiCount)),
        node_usable_{usable},
        node_held_(static_cast<std::size_t>(topology::kNodeSlots), false) {
    for (std::size_t rank = 0; rank < geminis_.size(); ++rank) {
      bool any = false;
      for (topology::NodeId n : nodes_of(rank)) {
        if (node_usable_[static_cast<std::size_t>(n)]) {
          any = true;
          ++free_node_count_;
        }
      }
      geminis_[rank].usable = any;
      geminis_[rank].free = any;
    }
    for (std::size_t rank = 0; rank < geminis_.size(); ++rank) {
      if (geminis_[rank].usable) search_order_.push_back(rank);
    }
    if (policy == PlacementPolicy::kCoolCageFirst) {
      std::stable_sort(search_order_.begin(), search_order_.end(),
                       [](std::size_t a, std::size_t b) { return cage_of(a) < cage_of(b); });
    }
  }

  std::optional<std::vector<topology::NodeId>> allocate(std::size_t node_count) {
    if (node_count == 0) return std::vector<topology::NodeId>{};
    if (node_count > free_node_count_) return std::nullopt;
    const std::size_t gemini_demand = (node_count + 1) / 2;
    std::vector<topology::NodeId> out;
    std::size_t remaining = node_count;
    if (const auto start = find_contiguous(gemini_demand)) {
      for (std::size_t i = *start; remaining > 0 && i < search_order_.size(); ++i) {
        if (!geminis_[search_order_[i]].free) continue;
        collect_nodes(search_order_[i], out, remaining);
      }
    }
    for (std::size_t i = 0; remaining > 0 && i < search_order_.size(); ++i) {
      if (!geminis_[search_order_[i]].free) continue;
      collect_nodes(search_order_[i], out, remaining);
    }
    if (remaining > 0) {
      release(out);
      return std::nullopt;
    }
    return out;
  }

  void release(const std::vector<topology::NodeId>& nodes) {
    for (topology::NodeId n : nodes) {
      const std::size_t rank = rank_of(n);
      if (geminis_[rank].free) continue;
      geminis_[rank].free = true;
      for (topology::NodeId sibling : nodes_of(rank)) {
        const auto idx = static_cast<std::size_t>(sibling);
        if (node_usable_[idx] && !node_held_[idx]) ++free_node_count_;
      }
    }
  }

  void hold_node(topology::NodeId node) {
    const auto idx = static_cast<std::size_t>(node);
    if (node_held_[idx]) return;
    node_held_[idx] = true;
    if (node_usable_[idx] && geminis_[rank_of(node)].free) --free_node_count_;
  }

  void unhold_node(topology::NodeId node) {
    const auto idx = static_cast<std::size_t>(node);
    if (!node_held_[idx]) return;
    node_held_[idx] = false;
    if (node_usable_[idx] && geminis_[rank_of(node)].free) ++free_node_count_;
  }

  [[nodiscard]] std::size_t free_nodes() const { return free_node_count_; }

 private:
  struct GeminiState {
    bool usable = false;
    bool free = false;
  };

  static std::array<topology::NodeId, 2> nodes_of(std::size_t rank) {
    return topology::gemini_nodes(topology::coord_from_rank(static_cast<int>(rank)));
  }
  static std::size_t rank_of(topology::NodeId node) {
    return static_cast<std::size_t>(topology::torus_rank(topology::torus_coord(node)));
  }
  static int cage_of(std::size_t rank) {
    return topology::coord_from_rank(static_cast<int>(rank)).z / topology::kBladesPerCage;
  }

  [[nodiscard]] std::optional<std::size_t> find_contiguous(std::size_t count) const {
    std::size_t run = 0;
    for (std::size_t i = 0; i < search_order_.size(); ++i) {
      if (geminis_[search_order_[i]].free) {
        ++run;
        if (run >= count) return i + 1 - count;
      } else {
        run = 0;
      }
    }
    return std::nullopt;
  }

  void collect_nodes(std::size_t rank, std::vector<topology::NodeId>& out,
                     std::size_t& remaining) {
    const auto nodes = nodes_of(rank);
    const bool any_effective = std::any_of(nodes.begin(), nodes.end(), [&](topology::NodeId n) {
      const auto idx = static_cast<std::size_t>(n);
      return node_usable_[idx] && !node_held_[idx];
    });
    if (!any_effective) return;
    geminis_[rank].free = false;
    for (topology::NodeId n : nodes) {
      const auto idx = static_cast<std::size_t>(n);
      if (!node_usable_[idx] || node_held_[idx]) continue;
      --free_node_count_;
      if (remaining > 0) {
        out.push_back(n);
        --remaining;
      }
    }
  }

  std::vector<GeminiState> geminis_;
  std::vector<bool> node_usable_;
  std::vector<bool> node_held_;
  std::vector<std::size_t> search_order_;
  std::size_t free_node_count_ = 0;
};

// Service nodes are never usable; a masked mask also drops ~4% of compute
// nodes, leaving routers with one usable node and routers with none.
std::vector<bool> usable_mask(stats::Rng& rng, bool masked) {
  std::vector<bool> usable(static_cast<std::size_t>(topology::kNodeSlots));
  for (topology::NodeId n = 0; n < topology::kNodeSlots; ++n) {
    usable[static_cast<std::size_t>(n)] =
        !topology::is_service_node(n) && !(masked && rng.bernoulli(0.04));
  }
  return usable;
}

class AllocatorOracle
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, PlacementPolicy>> {};

TEST_P(AllocatorOracle, MatchesLinearScanStepForStep) {
  const auto [seed, policy] = GetParam();
  stats::Rng rng{seed};
  const auto usable = usable_mask(rng, seed % 2 == 0);
  TorusAllocator alloc{usable, policy};
  ReferenceAllocator reference{usable, policy};
  ASSERT_EQ(alloc.free_nodes(), reference.free_nodes());

  std::vector<NodeList> live;
  std::vector<topology::NodeId> held;
  for (int step = 0; step < 1500; ++step) {
    const double action = rng.uniform();
    if (action < 0.45) {
      // Mostly small jobs, some huge: fragments the torus so both the
      // contiguous fit and the scattered fill run.
      const std::size_t request = rng.bernoulli(0.1)   ? 1 + rng.below(6000)
                                  : rng.bernoulli(0.3) ? 1 + rng.below(600)
                                                       : 1 + rng.below(40);
      const auto got = alloc.allocate(request);
      const auto want = reference.allocate(request);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got) {
        ASSERT_EQ(expand(*got), *want) << "step " << step << " request " << request;
        live.push_back(*got);
      }
    } else if (action < 0.8 && !live.empty()) {
      const std::size_t idx = rng.below(live.size());
      alloc.release(live[idx]);
      reference.release(expand(live[idx]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (action < 0.92) {
      // Any node: free, allocated (the hold applies on release), service.
      const auto node = static_cast<topology::NodeId>(rng.below(topology::kNodeSlots));
      alloc.hold_node(node);
      reference.hold_node(node);
      held.push_back(node);
    } else if (!held.empty()) {
      const std::size_t idx = rng.below(held.size());
      alloc.unhold_node(held[idx]);
      reference.unhold_node(held[idx]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(alloc.free_nodes(), reference.free_nodes()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, AllocatorOracle,
    ::testing::Combine(::testing::Values(11u, 12u, 13u, 14u),
                       ::testing::Values(PlacementPolicy::kTorusOrder,
                                         PlacementPolicy::kCoolCageFirst)),
    [](const ::testing::TestParamInfo<AllocatorOracle::ParamType>& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) == PlacementPolicy::kTorusOrder
                  ? "_torus_order"
                  : "_cool_cage_first");
    });

TEST(AllocatorProperty, FragmentedLargeRequestsMatchReference) {
  // Fill with 2-node jobs, free a pseudo-random half, then ask for sizes
  // around the free capacity: the contiguous fit mostly fails and the
  // scattered fill decides the node order.
  for (const auto policy : {PlacementPolicy::kTorusOrder, PlacementPolicy::kCoolCageFirst}) {
    stats::Rng rng{7};
    const auto usable = usable_mask(rng, false);
    TorusAllocator alloc{usable, policy};
    ReferenceAllocator reference{usable, policy};
    std::vector<NodeList> jobs;
    while (alloc.free_nodes() >= 2) {
      auto nodes = alloc.allocate(2);
      ASSERT_EQ(expand(nodes), reference.allocate(2));
      jobs.push_back(std::move(*nodes));
    }
    for (const auto& job : jobs) {
      if (rng.bernoulli(0.5)) {
        alloc.release(job);
        reference.release(expand(job));
      }
    }
    for (const std::size_t request : {std::size_t{3}, std::size_t{64}, std::size_t{5000},
                                      alloc.free_nodes(), alloc.free_nodes() + 1}) {
      ASSERT_EQ(expand(alloc.allocate(request)), reference.allocate(request))
          << "request " << request;
      ASSERT_EQ(alloc.free_nodes(), reference.free_nodes());
    }
  }
}

// Drives a TorusAllocator and the reference through the same operations,
// checking node lists and free_nodes() after every one.
class Lockstep {
 public:
  Lockstep(const std::vector<bool>& usable, PlacementPolicy policy)
      : alloc_{usable, policy}, reference_{usable, policy} {
    EXPECT_EQ(alloc_.free_nodes(), reference_.free_nodes());
  }

  NodeList allocate(std::size_t request) {
    const auto got = alloc_.allocate(request);
    EXPECT_EQ(expand(got), reference_.allocate(request)) << "request " << request;
    EXPECT_EQ(alloc_.free_nodes(), reference_.free_nodes()) << "request " << request;
    return got.value_or(NodeList{});
  }
  void release(const NodeList& nodes) {
    alloc_.release(nodes);
    reference_.release(expand(nodes));
    EXPECT_EQ(alloc_.free_nodes(), reference_.free_nodes());
  }
  void hold(topology::NodeId node) {
    alloc_.hold_node(node);
    reference_.hold_node(node);
    EXPECT_EQ(alloc_.free_nodes(), reference_.free_nodes()) << "hold " << node;
  }
  void unhold(topology::NodeId node) {
    alloc_.unhold_node(node);
    reference_.unhold_node(node);
    EXPECT_EQ(alloc_.free_nodes(), reference_.free_nodes()) << "unhold " << node;
  }
  [[nodiscard]] std::size_t free_nodes() const { return alloc_.free_nodes(); }

 private:
  TorusAllocator alloc_;
  ReferenceAllocator reference_;
};

TEST(AllocatorProperty, WordBoundaryRunsMatchReference) {
  // The fill reserves runs of free routers whose two nodes are both
  // available, a 64-router bitmap word at a time.  With every node usable
  // each router yields two nodes and search position p sits at bit p % 64
  // of word p / 64, so request sizes below place runs on exact word edges.
  const std::vector<bool> all_usable(static_cast<std::size_t>(topology::kNodeSlots), true);
  for (const auto policy : {PlacementPolicy::kTorusOrder, PlacementPolicy::kCoolCageFirst}) {
    SCOPED_TRACE(policy == PlacementPolicy::kTorusOrder ? "kTorusOrder" : "kCoolCageFirst");
    Lockstep both{all_usable, policy};
    // Routers 0..63: a run that starts at bit 0 and fills the whole word.
    const auto whole_word = both.allocate(128);
    both.allocate(100);  // routers 64..113
    both.allocate(28);   // routers 114..127: ends exactly on a word boundary
    // Routers 128..197, straddling the boundary at 192; odd, so the last
    // router is reserved whole but hands out one of its two nodes.
    const auto straddle = both.allocate(139);
    both.allocate(1);  // a single-router odd request: router 198
    // Free the first word again: the first fit reuses it from bit 0.
    both.release(whole_word);
    both.allocate(128);

    // A hold in the middle of a free run makes that router yield one node
    // and breaks the run of full routers around it.
    both.release(straddle);
    both.hold(straddle[71]);
    both.allocate(139);
    both.allocate(3);
    both.unhold(straddle[71]);  // the router is allocated: counted on release

    // A hold on an allocated node shrinks what its release gives back;
    // after the unhold the node is handed out again.
    const auto job = both.allocate(50);
    both.hold(job[7]);
    both.release(job);
    both.allocate(64);
    both.unhold(job[7]);
    both.allocate(2);
    // Hold both nodes of a free router: the fill skips it unreserved.
    const auto pair = both.allocate(2);
    both.release(pair);
    both.hold(pair[0]);
    both.hold(pair[1]);
    both.allocate(5);
    both.allocate(both.free_nodes());
    both.allocate(1);  // refused: no capacity left
  }

  // A masked usable vector: some routers yield one node from the start, so
  // runs end early and the single-router path hands out the survivors.
  for (const auto policy : {PlacementPolicy::kTorusOrder, PlacementPolicy::kCoolCageFirst}) {
    SCOPED_TRACE(policy == PlacementPolicy::kTorusOrder ? "kTorusOrder" : "kCoolCageFirst");
    stats::Rng rng{31};
    Lockstep both{usable_mask(rng, true), policy};
    std::vector<NodeList> live;
    for (const std::size_t request :
         {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{127},
          std::size_t{128}, std::size_t{129}, std::size_t{255}, std::size_t{256},
          std::size_t{257}, std::size_t{1000}}) {
      live.push_back(both.allocate(request));
    }
    for (std::size_t i = 0; i < live.size(); i += 2) both.release(live[i]);
    for (const std::size_t request :
         {std::size_t{2}, std::size_t{127}, std::size_t{129}, std::size_t{513}}) {
      both.allocate(request);
    }
    both.allocate(both.free_nodes());
  }
}

// A NodeList reads the same through its runs, its iterator and
// operator[], whether it is one inline run or spills past it.
void expect_consistent_runs(const NodeList& nodes) {
  std::size_t total = 0;
  for (std::size_t r = 0; r < nodes.run_count(); ++r) {
    ASSERT_GT(nodes.run(r).length, 0U);
    total += nodes.run(r).length;
  }
  ASSERT_EQ(total, nodes.size());
  ASSERT_EQ(nodes.empty(), nodes.run_count() == 0);
  const auto expanded = expand(nodes);
  ASSERT_EQ(expanded.size(), nodes.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    ASSERT_EQ(nodes[i], expanded[i]) << i;
  }
  if (!nodes.empty()) {
    ASSERT_EQ(nodes.front(), expanded.front());
  }
}

class AllocatorHint
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, PlacementPolicy>> {};

// Churn on a nearly full machine: the lowest free word, where the first
// fit and the scattered fill start, moves on almost every step.  Releases
// below it lower it, reserves that empty it raise it, and holds on freed
// nodes make the hint word's routers yield one node or none.  Lists are
// a mix of one inline run and many runs.
TEST_P(AllocatorHint, NearlyFullChurnMatchesReference) {
  const auto [seed, policy] = GetParam();
  stats::Rng rng{seed};
  Lockstep both{usable_mask(rng, seed % 2 == 1), policy};
  std::vector<NodeList> live;
  while (both.free_nodes() > 600) live.push_back(both.allocate(1 + rng.below(300)));

  std::vector<topology::NodeId> held;
  std::size_t single_run = 0;
  std::size_t multi_run = 0;
  for (int step = 0; step < 1200 && !::testing::Test::HasFailure(); ++step) {
    const double action = rng.uniform();
    if (action < 0.4 && !live.empty()) {
      // Mostly the oldest jobs, which sit in the lowest words.
      const std::size_t idx = rng.bernoulli(0.7) ? rng.below(std::min<std::size_t>(live.size(), 8))
                                                 : rng.below(live.size());
      const NodeList freed = live[idx];
      both.release(freed);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      if (!freed.empty() && rng.bernoulli(0.3)) {
        held.push_back(freed[rng.below(freed.size())]);
        both.hold(held.back());
      }
    } else if (action < 0.85) {
      const std::size_t request =
          rng.bernoulli(0.1) ? 1 + rng.below(3000) : 1 + rng.below(120);
      NodeList got = both.allocate(request);
      expect_consistent_runs(got);
      if (got.run_count() == 1) ++single_run;
      if (got.run_count() > 1) ++multi_run;
      if (!got.empty()) live.push_back(std::move(got));
    } else if (!held.empty()) {
      const std::size_t idx = rng.below(held.size());
      both.unhold(held[idx]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  EXPECT_GT(single_run, 50U);
  EXPECT_GT(multi_run, 50U);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, AllocatorHint,
    ::testing::Combine(::testing::Values(21u, 22u),
                       ::testing::Values(PlacementPolicy::kTorusOrder,
                                         PlacementPolicy::kCoolCageFirst)),
    [](const ::testing::TestParamInfo<AllocatorHint::ParamType>& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) == PlacementPolicy::kTorusOrder
                  ? "_torus_order"
                  : "_cool_cage_first");
    });

TEST(AllocatorProperty, RepeatedFillDrainIsStable) {
  auto alloc = TorusAllocator::production();
  const std::size_t total = alloc.total_nodes();
  for (int round = 0; round < 5; ++round) {
    std::vector<NodeList> jobs;
    while (alloc.free_nodes() >= 1000) {
      auto nodes = alloc.allocate(1000);
      ASSERT_TRUE(nodes.has_value());
      jobs.push_back(std::move(*nodes));
    }
    for (const auto& job : jobs) alloc.release(job);
    ASSERT_EQ(alloc.free_nodes(), total);
  }
}

TEST(AllocatorProperty, FragmentationStillServes) {
  // Allocate pairs, free every other one, then ask for a large block: the
  // scattered fallback must serve it from the freed holes.
  auto alloc = TorusAllocator::production();
  std::vector<NodeList> jobs;
  while (alloc.free_nodes() >= 2) {
    auto nodes = alloc.allocate(2);
    ASSERT_TRUE(nodes.has_value());
    jobs.push_back(std::move(*nodes));
  }
  std::size_t freed = 0;
  for (std::size_t i = 0; i < jobs.size(); i += 2) {
    alloc.release(jobs[i]);
    freed += jobs[i].size();
  }
  const auto big = alloc.allocate(freed);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->size(), freed);
}

}  // namespace
}  // namespace titan::sched
