// Run-length node lists.
//
// A job's allocation is a list of nodes.  The torus allocator hands out
// whole stretches of its search order, so a list is stored as runs of
// consecutive entries of a `NodeOrder` -- a numbering of node slots -- not
// one NodeId at a time.  Most jobs are a single run, so the first run is
// stored inline and only the runs after it go to the heap.  A list
// without an order numbers nodes by NodeId itself, which is how hand-built
// lists (tests, small fixtures) are written.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <vector>

#include "topology/machine.hpp"

namespace titan::sched {

/// An immutable numbering of node slots: entry e holds node(e).  The
/// allocator's search order lists the two nodes behind each router it
/// visits, router p at entries 2p and 2p + 1.
class NodeOrder {
 public:
  /// Entry of a node the order does not list.
  static constexpr std::uint32_t kNoEntry = static_cast<std::uint32_t>(-1);

  /// Throws std::invalid_argument if a node is not a node slot or is
  /// listed twice.
  explicit NodeOrder(std::vector<topology::NodeId> nodes);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] topology::NodeId node(std::size_t entry) const noexcept { return nodes_[entry]; }
  /// The node at each entry.
  [[nodiscard]] const topology::NodeId* data() const noexcept { return nodes_.data(); }
  /// Entry of `node`, a node slot; kNoEntry if the order does not list it.
  [[nodiscard]] std::uint32_t entry_of(topology::NodeId node) const noexcept {
    return entry_of_node_[static_cast<std::size_t>(node)];
  }

 private:
  std::vector<topology::NodeId> nodes_;
  std::vector<std::uint32_t> entry_of_node_;  ///< by NodeId
};

/// A list of nodes held as runs of consecutive entries of one order.
class NodeList {
 public:
  /// `length` consecutive entries from `first`.
  struct Run {
    std::uint32_t first = 0;
    std::uint32_t length = 0;
  };

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = topology::NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = topology::NodeId;

    Iterator() = default;
    [[nodiscard]] topology::NodeId operator*() const noexcept {
      return table_ != nullptr ? table_[entry_] : static_cast<topology::NodeId>(entry_);
    }
    Iterator& operator++() noexcept {
      if (++entry_ == last_) *this = Iterator{list_, run_ + 1};
      return *this;
    }
    Iterator operator++(int) noexcept {
      Iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Iterator&, const Iterator&) = default;

   private:
    friend class NodeList;
    Iterator(const NodeList* list, std::size_t run) noexcept;

    const NodeList* list_ = nullptr;
    const topology::NodeId* table_ = nullptr;  ///< the order's nodes; null in NodeId order
    std::size_t run_ = 0;
    std::uint32_t entry_ = 0;  ///< current entry
    std::uint32_t last_ = 0;   ///< one past the current run's last entry
  };
  using iterator = Iterator;
  using const_iterator = Iterator;
  using value_type = topology::NodeId;

  /// An empty list in NodeId order.
  NodeList() = default;
  /// An empty list over `order` (null: NodeId order).
  explicit NodeList(std::shared_ptr<const NodeOrder> order) noexcept : order_{std::move(order)} {}
  /// `nodes`, in that order, as runs of consecutive NodeIds.
  explicit NodeList(const std::vector<topology::NodeId>& nodes);
  NodeList(std::initializer_list<topology::NodeId> nodes);

  /// Append `length` entries from `first`; a run that continues the last
  /// one extends it.
  void append(std::uint32_t first, std::uint32_t length);

  /// The order the runs index; null means NodeId order.
  [[nodiscard]] const std::shared_ptr<const NodeOrder>& order() const noexcept { return order_; }
  [[nodiscard]] std::size_t run_count() const noexcept {
    return empty() ? 0 : 1 + rest_.size();
  }
  [[nodiscard]] Run run(std::size_t r) const noexcept {
    if (r == 0) return {first_.first, first_.end};
    return {rest_[r - 1].first, rest_[r - 1].end - stored(r - 1).end};
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return rest_.empty() ? first_.end : rest_.back().end;
  }
  [[nodiscard]] bool empty() const noexcept { return first_.end == 0; }
  [[nodiscard]] topology::NodeId front() const noexcept { return node_of(first_.first); }
  /// The i-th node, i < size(): a binary search over the runs.
  [[nodiscard]] topology::NodeId operator[](std::size_t i) const noexcept;

  [[nodiscard]] Iterator begin() const noexcept { return Iterator{this, 0}; }
  [[nodiscard]] Iterator end() const noexcept { return Iterator{this, run_count()}; }

  /// Same nodes in the same order, whatever orders the two lists use.
  friend bool operator==(const NodeList& a, const NodeList& b);

 private:
  /// A run as its first entry and the list position one past its last
  /// node, so positions are a binary search away.
  struct Stored {
    std::uint32_t first = 0;
    std::uint32_t end = 0;
  };

  [[nodiscard]] topology::NodeId node_of(std::uint32_t entry) const noexcept {
    return order_ ? order_->node(entry) : static_cast<topology::NodeId>(entry);
  }
  /// Run r as stored, r < run_count().
  [[nodiscard]] const Stored& stored(std::size_t r) const noexcept {
    return r == 0 ? first_ : rest_[r - 1];
  }

  std::shared_ptr<const NodeOrder> order_;
  Stored first_;              ///< run 0; end == 0 while the list is empty
  std::vector<Stored> rest_;  ///< runs 1..

};

}  // namespace titan::sched
