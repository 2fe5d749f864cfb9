// Sharded, memory-bounded study driver.
//
// run_study materializes every event, SBE strike and console line of the
// campaign at once -- fine for one Titan, hopeless for the 10-50x fleets
// the ROADMAP targets.  ShardedStudy partitions the campaign by card
// range into S independent shards and generates them one at a time:
//
//   * phases A-C (planning) run once, up front, in the front end that
//     run_study also starts from -- the plan plus the job trace is the
//     resident floor;
//   * phase D runs per shard over [bounds[k], bounds[k+1]) card serials,
//     so at most one shard's events are in memory at a time;
//   * phase E (the tail stream) rides with the LAST shard, because the
//     provisional index space is [card 0 .. N-1, tail] and the tail must
//     sort after every card at equal timestamps;
//   * the end-of-study nvidia-smi snapshot is taken only after every
//     shard ran (phase D mutates each card's InfoROM).
//
// Determinism: every per-card stream draws from its own named RNG fork
// (`ecc/card/<serial>`), so the partition cannot perturb any stream.
// Within a shard, streams merge by (time, local stream index); across
// shards, readers merge by (time, shard index).  Because shard k holds
// strictly lower provisional indices than shard k+1, the composition
// equals the unsharded global stable sort by (time, provisional index) --
// byte-identical at any shard count and thread width.
#pragma once

#include <cstddef>
#include <vector>

#include "core/facility.hpp"
#include "fault/campaign.hpp"
#include "logsim/smi.hpp"

namespace titan::core {

/// One shard's event stream as parallel columns -- the exact
/// representation tdf serializes (times ascending; equal-timestamp order
/// is the provisional card order).
struct ShardEventColumns {
  std::vector<stats::TimeSec> times;
  std::vector<topology::NodeId> nodes;
  std::vector<xid::ErrorKind> kinds;
  std::vector<xid::MemoryStructure> structures;

  [[nodiscard]] std::size_t size() const noexcept { return times.size(); }
};

class ShardedStudy {
 public:
  /// Plans the campaign (workload, fleet roster, phases A-C).  Peak RSS
  /// from here on is the plan + trace + one shard's events.
  ShardedStudy(const FacilityConfig& config, std::size_t shard_count);

  [[nodiscard]] std::size_t shard_count() const noexcept { return bounds_.size() - 1; }
  [[nodiscard]] std::size_t card_count() const noexcept { return front_.plan.card_count(); }
  [[nodiscard]] const FacilityConfig& config() const noexcept { return config_; }
  [[nodiscard]] const sched::JobTrace& trace() const noexcept { return front_.workload.trace; }

  /// Generate shard `shard`'s time-ordered event columns.  Shards must be
  /// generated exactly once each, in ascending order (the contract that
  /// keeps "every card mutated before the snapshot" trivially true).
  [[nodiscard]] ShardEventColumns shard_events(std::size_t shard);

  /// True once every shard was generated.
  [[nodiscard]] bool complete() const noexcept { return next_shard_ == shard_count(); }

  /// End-of-study fleet-wide nvidia-smi snapshot.  Requires complete().
  [[nodiscard]] logsim::SmiSnapshot final_snapshot() const;

  /// Compute-node-hours the campaign simulates (the bench headline unit).
  [[nodiscard]] double node_hours() const noexcept;

 private:
  FacilityConfig config_;
  StudyFrontEnd front_;
  std::vector<std::size_t> bounds_;  ///< shard_count()+1 card-serial fences
  std::size_t next_shard_ = 0;
};

}  // namespace titan::core
