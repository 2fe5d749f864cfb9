#include "sched/job.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "par/parallel.hpp"

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

  const std::vector<std::uint32_t> order = fill_order(jobs_);

  // Cut the fill order into epochs before the job that would take an
  // epoch past kEpochEntries.  cuts[e] is epoch e's first position.
  std::vector<std::size_t> cuts{0};
  std::size_t filled = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t width = jobs_[order[i]].nodes.size();
    if (filled > 0 && filled + width > kEpochEntries) {
      cuts.push_back(i);
      filled = 0;
    }
    filled += width;
  }
  if (!order.empty()) cuts.push_back(order.size());

  // Each epoch is a counting pass then a scatter into exact-sized arrays
  // it owns, so epochs fill concurrently.
  epochs_.resize(cuts.size() - 1);
  par::parallel_for(0, epochs_.size(), 1, [&](std::size_t e) {
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(cuts[e]);
    const auto last = order.begin() + static_cast<std::ptrdiff_t>(cuts[e + 1]);
    Epoch& epoch = epochs_[e];
    epoch.first_start = jobs_[*first].start;
    epoch.offsets.assign(static_cast<std::size_t>(topology::kNodeSlots) + 1, 0);
    for (auto it = first; it != last; ++it) {
      for (topology::NodeId node : jobs_[*it].nodes) {
        if (node < 0 || node >= topology::kNodeSlots) {
          throw std::invalid_argument{"JobTrace: job allocates an unknown node"};
        }
        ++epoch.offsets[static_cast<std::size_t>(node) + 1];
      }
    }
    std::partial_sum(epoch.offsets.begin(), epoch.offsets.end(), epoch.offsets.begin());

    epoch.jobs.resize(epoch.offsets.back());
    std::vector<std::uint32_t> cursor{epoch.offsets.begin(), epoch.offsets.end() - 1};
    for (auto it = first; it != last; ++it) {
      for (topology::NodeId node : jobs_[*it].nodes) {
        epoch.jobs[cursor[static_cast<std::size_t>(node)]++] = *it;
      }
    }
  });
}

const JobRecord& JobTrace::job(xid::JobId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) {
    throw std::out_of_range{"JobTrace: unknown job id"};
  }
  return jobs_[static_cast<std::size_t>(id)];
}

xid::JobId JobTrace::job_at(topology::NodeId node, stats::TimeSec when) const {
  check_node(node);
  const auto n = static_cast<std::size_t>(node);

  // The last epoch whose first job starts at or before `when`: no later
  // epoch holds an entry that starts by then.
  auto epoch = std::upper_bound(epochs_.begin(), epochs_.end(), when,
                                [](stats::TimeSec t, const Epoch& e) { return t < e.first_start; });
  if (epoch == epochs_.begin()) return xid::kNoJob;
  --epoch;

  // The node's last entry starting at or before `when`, if its job is
  // still running.  When this epoch has none, it is the last entry of the
  // newest earlier epoch that has any: those all start by first_start.
  const auto begin = epoch->jobs.begin() + epoch->offsets[n];
  const auto end = epoch->jobs.begin() + epoch->offsets[n + 1];
  const auto it = std::upper_bound(begin, end, when, [&](stats::TimeSec t, std::uint32_t j) {
    return t < jobs_[j].start;
  });
  std::uint32_t job = 0;
  if (it != begin) {
    job = *(it - 1);
  } else {
    do {
      if (epoch == epochs_.begin()) return xid::kNoJob;
      --epoch;
    } while (epoch->offsets[n] == epoch->offsets[n + 1]);
    job = epoch->jobs[epoch->offsets[n + 1] - 1];
  }
  const JobRecord& record = jobs_[job];
  return (when >= record.start && when < record.end) ? record.id : xid::kNoJob;
}

std::vector<JobTrace::Occupancy> JobTrace::occupancy(topology::NodeId node, stats::TimeSec begin,
                                                     stats::TimeSec end) const {
  check_node(node);
  const auto n = static_cast<std::size_t>(node);
  std::vector<Occupancy> out;
  for (const Epoch& epoch : epochs_) {
    if (epoch.first_start >= end) break;
    for (std::uint32_t i = epoch.offsets[n]; i < epoch.offsets[n + 1]; ++i) {
      const JobRecord& record = jobs_[epoch.jobs[i]];
      if (record.end <= begin) continue;
      if (record.start >= end) return out;
      out.push_back(Occupancy{record.id, std::max(begin, record.start),
                              std::min(end, record.end)});
    }
  }
  return out;
}

}  // namespace titan::sched
