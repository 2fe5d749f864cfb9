// Batch-job records: what Titan's job logs and resource-utilization logs
// provide for the Section 4 analyses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sched/node_list.hpp"
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
  /// Allocation, in the order the allocator reserved it: runs of its
  /// search order, which is torus-rank order under kTorusOrder and lower
  /// cages first under kCoolCageFirst.
  NodeList nodes;
  double gpu_core_hours = 0.0;            ///< node-hours x GPU duty factor
  double max_memory_gb = 0.0;             ///< peak per-node GPU memory (RUR maxrss style, <= 6)
  double total_memory_gb = 0.0;           ///< time-integrated per-node memory (GB x hours)
  bool debug = false;                     ///< ground truth: debug/test run (error-prone)

  [[nodiscard]] double wall_hours() const noexcept {
    return static_cast<double>(end - start) / static_cast<double>(stats::kSecondsPerHour);
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes.size(); }
};

/// A job trace plus an occupancy index for (node, time) -> job
/// attribution, which the fault generators and the per-job nvidia-smi
/// framework both need.
class JobTrace {
 public:
  /// Throws std::invalid_argument unless ids are dense and 0-based, every
  /// job with nodes lists them over one shared order, and every allocated
  /// node is in [0, kNodeSlots).
  explicit JobTrace(std::vector<JobRecord> jobs);

  [[nodiscard]] const std::vector<JobRecord>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] const JobRecord& job(xid::JobId id) const;

  /// Job running on `node` at `when`: the node's latest-starting job
  /// (ties to the higher id) if it has not ended; kNoJob when idle.  Both
  /// lookups throw std::out_of_range for a node outside [0, kNodeSlots).
  [[nodiscard]] xid::JobId job_at(topology::NodeId node, stats::TimeSec when) const;

  /// All (job, overlap-seconds) pairs for `node` within [begin, end), in
  /// (start, id) order.
  struct Occupancy {
    xid::JobId job = xid::kNoJob;
    stats::TimeSec begin = 0;
    stats::TimeSec end = 0;
  };
  [[nodiscard]] std::vector<Occupancy> occupancy(topology::NodeId node, stats::TimeSec begin,
                                                 stats::TimeSec end) const;

 private:
  /// One run of one job, clipped to a word of kWordEntries entries:
  /// entries [lo, end) of the word, as offsets from its first entry.
  struct Slot {
    std::uint32_t job = 0;  ///< dense job index
    std::uint8_t lo = 0;
    std::uint8_t end = 0;
  };
  static constexpr std::size_t kWordEntries = 128;  ///< 64 routers of the search order

  /// Entry of `node` in order_; throws std::out_of_range for a node
  /// outside [0, kNodeSlots).
  [[nodiscard]] std::uint32_t entry_of(topology::NodeId node) const;
  [[nodiscard]] std::span<const Slot> word_slots(std::size_t w) const noexcept;

  std::vector<JobRecord> jobs_;  ///< indexed by JobId (ids are dense, 0-based)
  /// The order every job's runs index; null means NodeId order.
  std::shared_ptr<const NodeOrder> order_;
  /// The longest job (end - start): a job that started longer ago than
  /// this before `when` has ended by then, so scans stop there.
  stats::TimeSec max_duration_ = 0;

  /// The occupancy index registers each run in every word of the order it
  /// touches, a few hundred thousand slots at Titan scale.  It is one CSR
  /// by word -- word w owns slots [word_offsets_[w], word_offsets_[w + 1])
  /// -- filled in (start, id) order, so each word's slots are sorted by
  /// start and lookups compare against jobs_[slot.job].start.
  std::vector<std::size_t> word_offsets_;
  std::vector<Slot> slots_;
};

}  // namespace titan::sched
