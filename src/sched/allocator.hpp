// Torus-aware node allocator.
//
// ALPS on Titan hands jobs node lists ordered along the Gemini torus; for
// large jobs that means a contiguous span of torus ranks.  Because the
// torus X dimension is cabled as a folded ring (see topology/torus.hpp),
// a contiguous torus span visits *alternating physical cabinets* -- the
// root cause of the striking Fig. 12 pattern.  The allocator reproduces
// that policy: Gemini-granular (2 nodes per router), contiguous-span first
// fit in torus-rank order, falling back to a scattered lowest-rank fill
// when fragmentation prevents a contiguous block.
//
// Cost: the allocator works on runs of routers, not single nodes.  Its
// search order is a `NodeOrder` listing the two nodes behind each router,
// so a run of routers is a run of entries, and an allocation is a
// `NodeList` of such runs over that shared order -- one run for most jobs.
// Two bitmaps over the search order, 64 routers to a word, hold which
// routers are free and which are *full* (both nodes usable and unheld);
// `yield_` keeps each router's count of usable, unheld nodes, refreshed
// on every hold and unhold.  A contiguous first fit hops the free bitmap
// a word at a time (countr_one / countr_zero), so it costs
// O(routers / 64 + free runs passed).  Both the fit and the scattered
// fill start at a hint, the lowest word with a free router: reserves
// advance it past words they empty and releases lower it.  The fill then takes each run of
// free-and-full routers within a word with one mask clear and appends it
// as one run; only a free router that yields fewer than two nodes is
// visited on its own, as a one-entry run.  `release` sets a run's free
// bits with word masks and adds back their yield, O(runs + words).
//
// An optional cage-aware placement policy implements the operational
// improvement of Observation 4 ("this observation was used for improved
// job scheduling for large GPU jobs at OLCF"): prefer ranks whose Geminis
// sit in cooler (lower) cages when placing very large jobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sched/node_list.hpp"
#include "topology/machine.hpp"
#include "topology/torus.hpp"

namespace titan::sched {

enum class PlacementPolicy : std::uint8_t {
  kTorusOrder,   ///< production behaviour (Fig. 12 pattern)
  kCoolCageFirst,///< Observation 4 ablation: bias large jobs to lower cages
};

class TorusAllocator {
 public:
  /// `usable` marks node slots that may be allocated (false for service
  /// nodes and held-down nodes).
  explicit TorusAllocator(const std::vector<bool>& usable,
                          PlacementPolicy policy = PlacementPolicy::kTorusOrder);

  /// Convenience: all compute (non-service) nodes usable.
  static TorusAllocator production(PlacementPolicy policy = PlacementPolicy::kTorusOrder);

  /// Allocate `node_count` nodes.  Returns std::nullopt when not enough
  /// free nodes exist.  Allocation is Gemini-granular: an odd request
  /// holds its final router's second node unusable-but-reserved (as ALPS
  /// does for exclusive placement).  The list's runs index `order()`.
  [[nodiscard]] std::optional<NodeList> allocate(std::size_t node_count);

  /// Return nodes of a previous allocation to the free pool.  A list over
  /// `order()` frees its runs whole; any other list is freed node by
  /// node, and throws std::out_of_range, before freeing anything, if a
  /// node id is not a node slot.
  void release(const NodeList& nodes);

  /// The search order: router p of the order owns entries 2p and 2p + 1.
  [[nodiscard]] const std::shared_ptr<const NodeOrder>& order() const noexcept { return order_; }

  [[nodiscard]] std::size_t free_nodes() const noexcept { return free_node_count_; }
  [[nodiscard]] std::size_t total_nodes() const noexcept { return total_node_count_; }

  /// Take a node out of service (e.g. health-monitor hold).  No effect if
  /// already allocated -- the hold then applies upon release.  Both throw
  /// std::out_of_range for an id that is not a node slot.
  void hold_node(topology::NodeId node);
  void unhold_node(topology::NodeId node);

  /// Work of the contiguous first fit so far (bench counters).
  struct ScanCounters {
    std::uint64_t fits = 0;   ///< first-fit searches
    std::uint64_t words = 0;  ///< bitmap words those searches visited
  };
  [[nodiscard]] const ScanCounters& scan_counters() const noexcept { return scan_; }

 private:
  /// Leftmost start (a search position) of `count` >= 1 consecutive free
  /// routers: the first fit of a linear scan in search order.
  [[nodiscard]] std::optional<std::size_t> find_contiguous(std::size_t count);
  /// First free search position at or after `pos`; router_count() if none.
  [[nodiscard]] std::size_t next_free(std::size_t pos) const;
  [[nodiscard]] bool is_free(std::size_t pos) const noexcept;
  void set_free(std::size_t pos, bool free) noexcept;
  [[nodiscard]] std::size_t router_count() const noexcept { return yield_.size(); }
  /// Reserve free routers in search order from `pos` until `remaining`
  /// nodes have been appended to `out` or the order runs out.
  void fill_from(std::size_t pos, NodeList& out, std::size_t& remaining);
  /// Free the routers at search positions [first, last) that are not
  /// free yet.
  void free_routers(std::size_t first, std::size_t last) noexcept;
  /// Recount the usable, unheld nodes behind the router at `pos`.
  void refresh_yield(std::size_t pos) noexcept;

  /// The two nodes behind each router of the search order (routers with
  /// at least one usable node, in visit order per policy).
  std::shared_ptr<const NodeOrder> order_;
  std::vector<std::uint8_t> yield_;  ///< usable, unheld nodes behind each router (0..2)
  /// Bit p of word p / 64 is set while the router at search position p is
  /// unallocated.  Held nodes do not clear it.
  std::vector<std::uint64_t> free_words_;
  /// Bit p of word p / 64 is set while yield_[p] == 2.
  std::vector<std::uint64_t> full_words_;
  /// Lowest word of free_words_ with a bit set (free_words_.size() if
  /// none): every word below it is zero.
  std::size_t first_free_word_ = 0;
  ScanCounters scan_;
  std::vector<bool> node_usable_;  ///< indexed by NodeId
  std::vector<bool> node_held_;    ///< operator holds
  std::size_t free_node_count_ = 0;
  std::size_t total_node_count_ = 0;
};

}  // namespace titan::sched
