// Sharded dataset production: the out-of-core companions to
// write_dataset.
//
// A sharded dataset directory holds S complete TDF containers
// (dataset.shard-0.tdf ... dataset.shard-(S-1).tdf) plus a manifest with
// a `shards S` key.  Each shard carries one contiguous, time-ordered
// slice of the event stream; the job-accounting and nvidia-smi segments
// ride in the LAST shard (they depend on end-of-campaign card state).
// The manifest's `shards S` line is what makes the directory sharded to
// DatasetSource::load, whose one roster loader k-way merges the shard
// streams -- the loader a monolithic dataset.tdf takes as a roster of one.
//
// Two producers:
//   * generate_sharded_dataset runs the campaign shard by shard through
//     core::ShardedStudy and spills each shard as it completes -- peak
//     resident memory is the campaign plan plus ONE shard's events, never
//     the full stream.  This is the only way to produce datasets that
//     exceed what run_study can materialize.
//   * write_sharded_dataset splits an already-loaded context into S
//     contiguous chunks (the titan-convert re-sharding path).
#pragma once

#include <cstddef>
#include <filesystem>

#include "core/facility.hpp"
#include "study/context.hpp"

namespace titan::study {

/// What a sharded write produced (CLI summary facts).
struct ShardedWriteStats {
  std::size_t shards = 0;
  std::size_t events = 0;             ///< total across shards
  std::size_t jobs = 0;
  std::size_t smi_blocks = 0;
  std::size_t peak_shard_events = 0;  ///< largest single shard
  std::size_t bytes = 0;              ///< total container bytes on disk
};

/// Run the fault campaign for `config` shard by shard and write a sharded
/// binary dataset into `dir`.  Events stream to disk as each shard
/// completes; the full event set is never resident.  Deterministic: the
/// merged load equals a monolithic dataset of the same config at every
/// shard count.  Throws std::invalid_argument when
/// `shard_count` is zero.
///
/// Crash consistency: a `study.ckpt` checkpoint is saved before the
/// first shard and re-saved after each shard commits, and the manifest
/// is written last as the commit point.  With `resume` set, a directory
/// holding a checkpoint from an interrupted run is picked up where it
/// left off: orphan *.tmp files are swept, already-sealed shards are
/// kept (their stats come from the seal record), and the remaining
/// shards are regenerated -- the finished dataset is byte-identical to
/// an uninterrupted run.  A damaged checkpoint throws IngestError with
/// an E_CKPT_* code; a checkpoint that disagrees with `config`'s seed,
/// profile or shard plan throws E_CKPT_MISMATCH.
ShardedWriteStats generate_sharded_dataset(const core::FacilityConfig& config,
                                           std::size_t shard_count,
                                           const std::filesystem::path& dir,
                                           bool resume = false);

/// Split an in-memory context's event stream into `shard_count`
/// contiguous chunks and write them as a sharded binary dataset.  Since
/// the stream is time-sorted, any contiguous split merges back losslessly
/// (the loader's (time, shard) tie-break reduces to concatenation).
ShardedWriteStats write_sharded_dataset(const StudyContext& context,
                                        const std::filesystem::path& dir,
                                        std::size_t shard_count);

}  // namespace titan::study
