#include "sched/job.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace titan::sched {

JobTrace::JobTrace(std::vector<JobRecord> jobs) : jobs_{std::move(jobs)} {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].id != static_cast<xid::JobId>(i)) {
      throw std::invalid_argument{"JobTrace: job ids must be dense and 0-based"};
    }
  }

  if (jobs_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"JobTrace: more than 2^32 jobs"};
  }

  base_ = std::numeric_limits<stats::TimeSec>::max();
  for (const auto& job : jobs_) base_ = std::min(base_, job.start);
  if (jobs_.empty()) base_ = 0;

  // Counting pass -> exact-sized CSR arrays: no per-node vector slack and
  // no reallocation transient, which matters when the index holds tens of
  // millions of entries.
  offsets_.assign(static_cast<std::size_t>(topology::kNodeSlots) + 1, 0);
  for (const auto& job : jobs_) {
    for (topology::NodeId node : job.nodes) {
      ++offsets_[static_cast<std::size_t>(node) + 1];
    }
  }
  for (std::size_t n = 1; n < offsets_.size(); ++n) offsets_[n] += offsets_[n - 1];

  entries_.resize(offsets_.back());
  std::vector<std::uint64_t> cursor{offsets_.begin(), offsets_.end() - 1};
  for (const auto& job : jobs_) {
    const stats::TimeSec delta = job.start - base_;
    if (delta > static_cast<stats::TimeSec>(std::numeric_limits<std::uint32_t>::max())) {
      throw std::invalid_argument{"JobTrace: trace spans more than 2^32 seconds"};
    }
    const auto start = static_cast<std::uint32_t>(delta);
    for (topology::NodeId node : job.nodes) {
      entries_[cursor[static_cast<std::size_t>(node)]++] =
          IndexEntry{start, static_cast<std::uint32_t>(job.id)};
    }
  }

  const auto before = [](const IndexEntry& a, const IndexEntry& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.job < b.job;
  };
  // A chronological simulator emits jobs in (start, id) order, so every
  // slice is usually sorted already; the check is one linear pass.
  for (std::size_t n = 0; n + 1 < offsets_.size(); ++n) {
    const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[n]);
    const auto last = entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[n + 1]);
    if (!std::is_sorted(first, last, before)) std::sort(first, last, before);
  }
}

const JobRecord& JobTrace::job(xid::JobId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) {
    throw std::out_of_range{"JobTrace: unknown job id"};
  }
  return jobs_[static_cast<std::size_t>(id)];
}

xid::JobId JobTrace::job_at(topology::NodeId node, stats::TimeSec when) const {
  const auto n = static_cast<std::size_t>(node);
  if (n + 1 >= offsets_.size()) throw std::out_of_range{"JobTrace: unknown node"};
  if (when < base_) return xid::kNoJob;
  const stats::TimeSec delta = when - base_;
  const auto key = static_cast<std::uint32_t>(
      std::min(delta, static_cast<stats::TimeSec>(std::numeric_limits<std::uint32_t>::max())));

  // Last entry starting at or before `when`, if its job is still running.
  const auto begin = entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[n]);
  const auto end = entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[n + 1]);
  auto it = std::upper_bound(begin, end, key,
                             [](std::uint32_t k, const IndexEntry& e) { return k < e.start; });
  if (it == begin) return xid::kNoJob;
  --it;
  const JobRecord& record = jobs_[static_cast<std::size_t>(it->job)];
  return (when >= record.start && when < record.end) ? record.id : xid::kNoJob;
}

std::vector<JobTrace::Occupancy> JobTrace::occupancy(topology::NodeId node, stats::TimeSec begin,
                                                     stats::TimeSec end) const {
  const auto n = static_cast<std::size_t>(node);
  if (n + 1 >= offsets_.size()) throw std::out_of_range{"JobTrace: unknown node"};
  std::vector<Occupancy> out;
  for (std::uint64_t i = offsets_[n]; i < offsets_[n + 1]; ++i) {
    const JobRecord& record = jobs_[static_cast<std::size_t>(entries_[i].job)];
    if (record.end <= begin) continue;
    if (record.start >= end) break;
    out.push_back(Occupancy{record.id, std::max(begin, record.start),
                            std::min(end, record.end)});
  }
  return out;
}

}  // namespace titan::sched
