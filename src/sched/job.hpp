// Batch-job records: what Titan's job logs and resource-utilization logs
// provide for the Section 4 analyses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/calendar.hpp"
#include "topology/machine.hpp"
#include "xid/event.hpp"

namespace titan::sched {

/// One completed batch job.
struct JobRecord {
  xid::JobId id = xid::kNoJob;
  xid::UserId user = xid::kNoUser;
  stats::TimeSec start = 0;
  stats::TimeSec end = 0;                 ///< exclusive
  std::vector<topology::NodeId> nodes;    ///< allocation, torus-rank order
  double gpu_core_hours = 0.0;            ///< node-hours x GPU duty factor
  double max_memory_gb = 0.0;             ///< peak per-node GPU memory (RUR maxrss style, <= 6)
  double total_memory_gb = 0.0;           ///< time-integrated per-node memory (GB x hours)
  bool debug = false;                     ///< ground truth: debug/test run (error-prone)

  [[nodiscard]] double wall_hours() const noexcept {
    return static_cast<double>(end - start) / static_cast<double>(stats::kSecondsPerHour);
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes.size(); }
};

/// A job trace plus per-node occupancy index for (node, time) -> job
/// attribution, which the fault generators and the per-job nvidia-smi
/// framework both need.
class JobTrace {
 public:
  /// Throws std::invalid_argument unless ids are dense and 0-based and
  /// every allocated node is in [0, kNodeSlots).
  explicit JobTrace(std::vector<JobRecord> jobs);

  [[nodiscard]] const std::vector<JobRecord>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] const JobRecord& job(xid::JobId id) const;

  /// Job running on `node` at `when`; kNoJob when idle.  Both lookups
  /// throw std::out_of_range for a node outside [0, kNodeSlots).
  [[nodiscard]] xid::JobId job_at(topology::NodeId node, stats::TimeSec when) const;

  /// All (job, overlap-seconds) pairs for `node` within [begin, end).
  struct Occupancy {
    xid::JobId job = xid::kNoJob;
    stats::TimeSec begin = 0;
    stats::TimeSec end = 0;
  };
  [[nodiscard]] std::vector<Occupancy> occupancy(topology::NodeId node, stats::TimeSec begin,
                                                 stats::TimeSec end) const;

  /// Target index entries per epoch (4 MiB of 4-byte entries).  A fixed
  /// constant, so the index layout depends only on the jobs.
  static constexpr std::size_t kEpochEntries = std::size_t{1} << 20;

 private:
  std::vector<JobRecord> jobs_;  ///< indexed by JobId (ids are dense, 0-based)

  /// The occupancy index holds one 4-byte entry, the dense job index, per
  /// (job x allocated node) -- tens of millions at Titan scale.  Entries
  /// are filled in (start, id) order, so each node's entries come out
  /// sorted by start without a per-node sort; lookups compare against
  /// jobs_[job].start.  The fill order is cut, at job boundaries, into
  /// epochs of about kEpochEntries entries, and each epoch is its own
  /// CSR: node n owns [offsets[n], offsets[n+1]) of its jobs.  An epoch's
  /// arrays fit in cache, so its scatter stays cache- and TLB-local where
  /// one trace-wide CSR sends every write to a different page; epochs are
  /// also independent, so they are counted and filled in parallel.  Epoch
  /// boundaries depend only on the jobs, never on the thread count.
  /// Every entry of epoch e starts no earlier than epochs_[e].first_start
  /// and no later than epochs_[e+1].first_start.
  struct Epoch {
    stats::TimeSec first_start = 0;      ///< start of the epoch's first job
    std::vector<std::uint32_t> offsets;  ///< kNodeSlots + 1 fences into jobs
    std::vector<std::uint32_t> jobs;     ///< dense job indices
  };
  std::vector<Epoch> epochs_;
};

}  // namespace titan::sched
