#include "sched/allocator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace titan::sched {

namespace {

using topology::kGeminiCount;
using topology::kNodeSlots;
using topology::NodeId;

constexpr std::size_t kWordBits = 64;

// The two nodes behind the Gemini at torus rank `rank`.
[[nodiscard]] std::array<NodeId, 2> nodes_of_rank(std::size_t rank) {
  return topology::gemini_nodes(topology::coord_from_rank(static_cast<int>(rank)));
}

// Cage (0..2) hosting the Gemini at torus rank `rank`.
[[nodiscard]] int cage_of_rank(std::size_t rank) {
  const auto coord = topology::coord_from_rank(static_cast<int>(rank));
  return coord.z / topology::kBladesPerCage;
}

void check_node(NodeId node) {
  if (node < 0 || node >= kNodeSlots) {
    throw std::out_of_range{"TorusAllocator: unknown node"};
  }
}

}  // namespace

TorusAllocator::TorusAllocator(const std::vector<bool>& usable, PlacementPolicy policy)
    : node_usable_{usable}, node_held_(static_cast<std::size_t>(kNodeSlots), false) {
  if (usable.size() != static_cast<std::size_t>(kNodeSlots)) {
    throw std::invalid_argument{"TorusAllocator: usable mask must cover all node slots"};
  }
  // Search order: production walks plain torus-rank order over routers
  // with a usable node; the cool-cage policy visits lower cages first
  // (Observation 4 ablation).
  std::vector<std::size_t> search_order;
  for (std::size_t rank = 0; rank < static_cast<std::size_t>(kGeminiCount); ++rank) {
    bool any = false;
    for (NodeId n : nodes_of_rank(rank)) {
      if (node_usable_[static_cast<std::size_t>(n)]) {
        any = true;
        ++free_node_count_;
      }
    }
    if (any) search_order.push_back(rank);
  }
  total_node_count_ = free_node_count_;
  if (policy == PlacementPolicy::kCoolCageFirst) {
    std::stable_sort(search_order.begin(), search_order.end(),
                     [](std::size_t a, std::size_t b) { return cage_of_rank(a) < cage_of_rank(b); });
  }

  std::vector<NodeId> search_nodes;
  search_nodes.reserve(2 * search_order.size());
  for (const std::size_t rank : search_order) {
    for (NodeId n : nodes_of_rank(rank)) search_nodes.push_back(n);
  }
  order_ = std::make_shared<const NodeOrder>(std::move(search_nodes));
  // Every router starts free; bits past the last position stay clear so
  // no run or scan ever reaches them.
  yield_.assign(search_order.size(), 0);
  const std::size_t words = (router_count() + kWordBits - 1) / kWordBits;
  free_words_.assign(words, 0);
  full_words_.assign(words, 0);
  for (std::size_t pos = 0; pos < router_count(); ++pos) {
    set_free(pos, true);
    refresh_yield(pos);
  }
}

TorusAllocator TorusAllocator::production(PlacementPolicy policy) {
  std::vector<bool> usable(static_cast<std::size_t>(kNodeSlots));
  for (NodeId n = 0; n < kNodeSlots; ++n) {
    usable[static_cast<std::size_t>(n)] = !topology::is_service_node(n);
  }
  return TorusAllocator{usable, policy};
}

bool TorusAllocator::is_free(std::size_t pos) const noexcept {
  return ((free_words_[pos / kWordBits] >> (pos % kWordBits)) & 1U) != 0;
}

void TorusAllocator::set_free(std::size_t pos, bool free) noexcept {
  const std::uint64_t bit = std::uint64_t{1} << (pos % kWordBits);
  if (free) {
    free_words_[pos / kWordBits] |= bit;
  } else {
    free_words_[pos / kWordBits] &= ~bit;
  }
}

std::optional<std::size_t> TorusAllocator::find_contiguous(std::size_t count) {
  // A "contiguous" block is a run of consecutive search positions, all
  // currently free; busy routers break a run.  Walk the bitmap one block
  // of equal bits at a time, carrying the run across word boundaries; the
  // first run to reach `count` is the leftmost fit.  Every word below the
  // hint is busy, so no run starts there.
  ++scan_.fits;
  std::size_t run = 0;  // free positions immediately before `bit`
  for (std::size_t w = first_free_word_; w < free_words_.size(); ++w) {
    const std::uint64_t word = free_words_[w];
    std::size_t bit = 0;
    while (bit < kWordBits) {
      const auto ones = static_cast<std::size_t>(std::countr_one(word >> bit));
      if (run + ones >= count) {
        scan_.words += w - first_free_word_ + 1;
        return w * kWordBits + bit - run;
      }
      run += ones;
      bit += ones;
      if (bit == kWordBits) break;
      run = 0;
      bit += static_cast<std::size_t>(std::countr_zero(word >> bit));
    }
  }
  scan_.words += free_words_.size() - first_free_word_;
  return std::nullopt;
}

std::size_t TorusAllocator::next_free(std::size_t pos) const {
  if (pos >= router_count()) return router_count();
  std::size_t w = pos / kWordBits;
  std::uint64_t word = free_words_[w] & (~std::uint64_t{0} << (pos % kWordBits));
  while (word == 0) {
    if (++w == free_words_.size()) return router_count();
    word = free_words_[w];
  }
  return w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
}

void TorusAllocator::refresh_yield(std::size_t pos) noexcept {
  std::uint8_t yield = 0;
  for (std::size_t i = 2 * pos; i < 2 * pos + 2; ++i) {
    const auto idx = static_cast<std::size_t>(order_->node(i));
    if (node_usable_[idx] && !node_held_[idx]) ++yield;
  }
  yield_[pos] = yield;
  const std::uint64_t bit = std::uint64_t{1} << (pos % kWordBits);
  if (yield == 2) {
    full_words_[pos / kWordBits] |= bit;
  } else {
    full_words_[pos / kWordBits] &= ~bit;
  }
}

void TorusAllocator::fill_from(std::size_t pos, NodeList& out, std::size_t& remaining) {
  for (pos = next_free(pos); remaining > 0 && pos < router_count(); pos = next_free(pos)) {
    const std::size_t w = pos / kWordBits;
    const std::size_t bit = pos % kWordBits;
    // Free routers from `pos` on whose two nodes are both available,
    // capped at what the request still needs.
    const std::size_t run = std::min(
        static_cast<std::size_t>(std::countr_one((free_words_[w] & full_words_[w]) >> bit)),
        (remaining + 1) / 2);
    if (run > 0) {
      // run is 1..64, so the shift stays below the word width.
      const std::uint64_t ones = ~std::uint64_t{0} >> (kWordBits - run);
      free_words_[w] &= ~(ones << bit);
      free_node_count_ -= 2 * run;  // whole routers are reserved either way
      const std::size_t take = std::min(2 * run, remaining);
      out.append(static_cast<std::uint32_t>(2 * pos), static_cast<std::uint32_t>(take));
      remaining -= take;
      pos += run;
      continue;
    }
    // A free router that yields fewer than two nodes.  One whose nodes
    // are all held is skipped, not reserved: reserving it would leak the
    // reservation (a rollback only revisits routers that yielded a node).
    if (yield_[pos] > 0) {
      set_free(pos, false);
      --free_node_count_;
      for (std::size_t i = 2 * pos; i < 2 * pos + 2; ++i) {
        const auto idx = static_cast<std::size_t>(order_->node(i));
        if (node_usable_[idx] && !node_held_[idx]) {
          out.append(static_cast<std::uint32_t>(i), 1);
          --remaining;
          break;
        }
      }
    }
    ++pos;
  }
  while (first_free_word_ < free_words_.size() && free_words_[first_free_word_] == 0) {
    ++first_free_word_;
  }
}

std::optional<NodeList> TorusAllocator::allocate(std::size_t node_count) {
  NodeList out{order_};
  if (node_count == 0) return out;
  if (node_count > free_node_count_) return std::nullopt;

  // Router demand assumes two usable nodes per router; holds or service
  // sharing can make a router yield one, handled by the scattered pass.
  const std::size_t gemini_demand = (node_count + 1) / 2;

  std::size_t remaining = node_count;
  // The found window is free by construction; the fill continues past it
  // only if holds made some routers yield fewer nodes than expected.
  if (const auto start = find_contiguous(gemini_demand)) fill_from(*start, out, remaining);
  // Scattered fill (fallback, or tail after an under-yielding window)
  // from the lowest free word.
  if (remaining > 0) fill_from(first_free_word_ * kWordBits, out, remaining);
  if (remaining > 0) {
    // Could not satisfy after all (holds shrank effective capacity):
    // roll back.
    release(out);
    return std::nullopt;
  }
  return out;
}

void TorusAllocator::free_routers(std::size_t first, std::size_t last) noexcept {
  while (first < last) {
    const std::size_t w = first / kWordBits;
    const std::size_t bit = first % kWordBits;
    const std::size_t span = std::min(last - first, kWordBits - bit);
    // span is 1..64, so the shift stays below the word width.
    const std::uint64_t mask = (~std::uint64_t{0} >> (kWordBits - span)) << bit;
    const std::uint64_t newly = mask & ~free_words_[w];
    free_words_[w] |= mask;
    first_free_word_ = std::min(first_free_word_, w);
    // Full routers yield two nodes; the rest are looked up one by one.
    free_node_count_ += 2 * static_cast<std::size_t>(std::popcount(newly & full_words_[w]));
    for (std::uint64_t partial = newly & ~full_words_[w]; partial != 0; partial &= partial - 1) {
      const auto pos = w * kWordBits + static_cast<std::size_t>(std::countr_zero(partial));
      free_node_count_ += yield_[pos];
    }
    first += span;
  }
}

void TorusAllocator::release(const NodeList& nodes) {
  if (nodes.order() == order_) {
    for (std::size_t r = 0; r < nodes.run_count(); ++r) {
      const NodeList::Run run = nodes.run(r);
      if (std::size_t{run.first} + run.length > order_->size()) {
        throw std::out_of_range{"TorusAllocator: run past the search order"};
      }
    }
    // A job owns whole routers; a run frees every router it touches.
    for (std::size_t r = 0; r < nodes.run_count(); ++r) {
      const NodeList::Run run = nodes.run(r);
      free_routers(run.first / 2, (std::size_t{run.first} + run.length + 1) / 2);
    }
    return;
  }
  std::for_each(nodes.begin(), nodes.end(), check_node);
  // Freeing any node of a router frees it.
  for (NodeId n : nodes) {
    const std::uint32_t entry = order_->entry_of(n);
    if (entry == NodeOrder::kNoEntry) continue;
    free_routers(entry / 2, entry / 2 + 1);
  }
}

void TorusAllocator::hold_node(NodeId node) {
  check_node(node);
  const auto idx = static_cast<std::size_t>(node);
  if (node_held_[idx]) return;
  node_held_[idx] = true;
  if (!node_usable_[idx]) return;
  const std::size_t pos = order_->entry_of(node) / 2;
  refresh_yield(pos);
  if (is_free(pos)) --free_node_count_;
}

void TorusAllocator::unhold_node(NodeId node) {
  check_node(node);
  const auto idx = static_cast<std::size_t>(node);
  if (!node_held_[idx]) return;
  node_held_[idx] = false;
  if (!node_usable_[idx]) return;
  const std::size_t pos = order_->entry_of(node) / 2;
  refresh_yield(pos);
  if (is_free(pos)) ++free_node_count_;
}

}  // namespace titan::sched
