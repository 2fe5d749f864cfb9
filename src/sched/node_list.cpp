#include "sched/node_list.hpp"

#include <algorithm>
#include <stdexcept>

namespace titan::sched {

NodeOrder::NodeOrder(std::vector<topology::NodeId> nodes)
    : nodes_{std::move(nodes)},
      entry_of_node_(static_cast<std::size_t>(topology::kNodeSlots), kNoEntry) {
  for (std::size_t e = 0; e < nodes_.size(); ++e) {
    const topology::NodeId node = nodes_[e];
    if (node < 0 || node >= topology::kNodeSlots) {
      throw std::invalid_argument{"NodeOrder: unknown node"};
    }
    auto& entry = entry_of_node_[static_cast<std::size_t>(node)];
    if (entry != kNoEntry) throw std::invalid_argument{"NodeOrder: node listed twice"};
    entry = static_cast<std::uint32_t>(e);
  }
}

NodeList::Iterator::Iterator(const NodeList* list, std::size_t run) noexcept
    : list_{list}, table_{list->order_ ? list->order_->data() : nullptr}, run_{run} {
  if (run_ < list_->run_count()) {
    const Run r = list_->run(run_);
    entry_ = r.first;
    last_ = r.first + r.length;
  }
}

NodeList::NodeList(const std::vector<topology::NodeId>& nodes) {
  for (const topology::NodeId node : nodes) append(static_cast<std::uint32_t>(node), 1);
}

NodeList::NodeList(std::initializer_list<topology::NodeId> nodes)
    : NodeList(std::vector<topology::NodeId>(nodes)) {}

void NodeList::append(std::uint32_t first, std::uint32_t length) {
  if (length == 0) return;
  const auto size_before = static_cast<std::uint32_t>(size());
  if (empty()) {
    first_ = {first, length};
    return;
  }
  Stored& last = rest_.empty() ? first_ : rest_.back();
  const Run tail = run(run_count() - 1);
  if (std::uint64_t{tail.first} + tail.length == first) {
    last.end += length;
    return;
  }
  rest_.push_back({first, size_before + length});
}

topology::NodeId NodeList::operator[](std::size_t i) const noexcept {
  if (i < first_.end) return node_of(first_.first + static_cast<std::uint32_t>(i));
  const auto it = std::upper_bound(rest_.begin(), rest_.end(), i,
                                   [](std::size_t pos, const Stored& s) { return pos < s.end; });
  const std::size_t run_begin = it == rest_.begin() ? first_.end : (it - 1)->end;
  return node_of(it->first + static_cast<std::uint32_t>(i - run_begin));
}

bool operator==(const NodeList& a, const NodeList& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace titan::sched
