#include "sched/job.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace titan::sched {

namespace {

void check_node(topology::NodeId node) {
  if (node < 0 || node >= topology::kNodeSlots) {
    throw std::out_of_range{"JobTrace: unknown node"};
  }
}

/// Dense job indices in (start, id) order.  A chronological simulator
/// emits jobs in that order already, so the sort is usually skipped; ids
/// equal positions, so a stable sort by start alone breaks ties by id.
std::vector<std::uint32_t> fill_order(const std::vector<JobRecord>& jobs) {
  std::vector<std::uint32_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  const auto earlier = [](const JobRecord& a, const JobRecord& b) { return a.start < b.start; };
  if (!std::is_sorted(jobs.begin(), jobs.end(), earlier)) {
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return earlier(jobs[a], jobs[b]);
    });
  }
  return order;
}

}  // namespace

JobTrace::JobTrace(std::vector<JobRecord> jobs) : jobs_{std::move(jobs)} {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].id != static_cast<xid::JobId>(i)) {
      throw std::invalid_argument{"JobTrace: job ids must be dense and 0-based"};
    }
  }

  if (jobs_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"JobTrace: more than 2^32 jobs"};
  }

  // One order for every job with nodes; each run must stay inside it.
  const auto with_nodes = std::find_if(jobs_.begin(), jobs_.end(),
                                       [](const JobRecord& job) { return !job.nodes.empty(); });
  if (with_nodes != jobs_.end()) order_ = with_nodes->nodes.order();
  const std::size_t entries =
      order_ ? order_->size() : static_cast<std::size_t>(topology::kNodeSlots);
  for (const JobRecord& job : jobs_) {
    if (job.nodes.empty()) continue;
    if (job.nodes.order() != order_) {
      throw std::invalid_argument{"JobTrace: jobs list their nodes over different orders"};
    }
    for (std::size_t r = 0; r < job.nodes.run_count(); ++r) {
      const NodeList::Run run = job.nodes.run(r);
      if (std::size_t{run.first} + run.length > entries) {
        throw std::invalid_argument{"JobTrace: job allocates an unknown node"};
      }
    }
    max_duration_ = std::max(max_duration_, job.end - job.start);
  }

  // Counting pass then scatter, in (start, id) order: each run lands in
  // every word it touches.
  const std::vector<std::uint32_t> order = fill_order(jobs_);
  const auto for_each_slot = [&](auto&& visit) {
    for (const std::uint32_t j : order) {
      const NodeList& nodes = jobs_[j].nodes;
      for (std::size_t r = 0; r < nodes.run_count(); ++r) {
        const NodeList::Run run = nodes.run(r);
        const std::size_t last = std::size_t{run.first} + run.length;
        for (std::size_t w = run.first / kWordEntries; w * kWordEntries < last; ++w) {
          const std::size_t base = w * kWordEntries;
          visit(w, Slot{j, static_cast<std::uint8_t>(std::max<std::size_t>(run.first, base) - base),
                        static_cast<std::uint8_t>(std::min(last, base + kWordEntries) - base)});
        }
      }
    }
  };
  word_offsets_.assign((entries + kWordEntries - 1) / kWordEntries + 1, 0);
  for_each_slot([&](std::size_t w, const Slot&) { ++word_offsets_[w + 1]; });
  std::partial_sum(word_offsets_.begin(), word_offsets_.end(), word_offsets_.begin());
  slots_.resize(word_offsets_.back());
  std::vector<std::size_t> cursor{word_offsets_.begin(), word_offsets_.end() - 1};
  for_each_slot([&](std::size_t w, const Slot& slot) { slots_[cursor[w]++] = slot; });
}

const JobRecord& JobTrace::job(xid::JobId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) {
    throw std::out_of_range{"JobTrace: unknown job id"};
  }
  return jobs_[static_cast<std::size_t>(id)];
}

std::uint32_t JobTrace::entry_of(topology::NodeId node) const {
  check_node(node);
  return order_ ? order_->entry_of(node) : static_cast<std::uint32_t>(node);
}

std::span<const JobTrace::Slot> JobTrace::word_slots(std::size_t w) const noexcept {
  return std::span{slots_}.subspan(word_offsets_[w], word_offsets_[w + 1] - word_offsets_[w]);
}

xid::JobId JobTrace::job_at(topology::NodeId node, stats::TimeSec when) const {
  const std::uint32_t entry = entry_of(node);
  if (entry == NodeOrder::kNoEntry) return xid::kNoJob;
  const auto slots = word_slots(entry / kWordEntries);
  const auto offset = static_cast<std::uint8_t>(entry % kWordEntries);

  // Back from the word's last slot starting at or before `when`: the
  // first slot covering the entry is the node's latest-starting job.
  // Slots that started more than max_duration_ before `when` belong to
  // jobs that have ended, so the scan stops there.
  auto it = std::upper_bound(slots.begin(), slots.end(), when,
                             [&](stats::TimeSec t, const Slot& s) { return t < jobs_[s.job].start; });
  while (it != slots.begin()) {
    --it;
    const JobRecord& record = jobs_[it->job];
    if (when - record.start > max_duration_) break;
    if (it->lo <= offset && offset < it->end) {
      return when < record.end ? record.id : xid::kNoJob;
    }
  }
  return xid::kNoJob;
}

std::vector<JobTrace::Occupancy> JobTrace::occupancy(topology::NodeId node, stats::TimeSec begin,
                                                     stats::TimeSec end) const {
  const std::uint32_t entry = entry_of(node);
  std::vector<Occupancy> out;
  if (entry == NodeOrder::kNoEntry) return out;
  const auto slots = word_slots(entry / kWordEntries);
  const auto offset = static_cast<std::uint8_t>(entry % kWordEntries);

  // Jobs that started more than max_duration_ before `begin` ended by then.
  auto it = std::partition_point(slots.begin(), slots.end(), [&](const Slot& s) {
    return begin - jobs_[s.job].start > max_duration_;
  });
  for (; it != slots.end(); ++it) {
    const JobRecord& record = jobs_[it->job];
    if (record.start >= end) break;
    if (offset < it->lo || offset >= it->end || record.end <= begin) continue;
    out.push_back(Occupancy{record.id, std::max(begin, record.start), std::min(end, record.end)});
  }
  return out;
}

}  // namespace titan::sched
