// Shared serialization internals for the dataset writers (write_dataset
// and the sharded producers).  Both formats quantize doubles to the
// text serialization's rounding (in place, no text rendered) so text,
// binary and sharded datasets of one context load byte-identically;
// these helpers are that quantization rule, the manifest and its commit
// point, the container builder and the one roster writer in one place.
// Not a public API.
//
// Every writer follows one protocol: the begin step (intent checkpoint,
// the previous manifest removed, then every crash leftover and every
// dataset artifact present), then each artifact written
// atomically with a checksum claim hashed from the very bytes handed to
// the write (never a read-back), then the manifest last as the commit
// point, then the checkpoint removed.  Rerunning a writer is its resume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "logsim/joblog.hpp"
#include "logsim/smi.hpp"
#include "profile/fleet_profile.hpp"
#include "stats/calendar.hpp"
#include "study/context.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace titan::study::detail {

/// Console lines of the context, rendered from the frame's base columns
/// under the context's fleet profile (parallel, byte-identical at any
/// width).
[[nodiscard]] std::vector<std::string> console_lines_of(const StudyContext& context);

/// Job lines of the context (ground-truth trace, else the loaded job log).
[[nodiscard]] std::vector<std::string> job_lines_of(const StudyContext& context);

/// Job records of `trace` quantized in place to the job log's rounding
/// (what the binary formats store; see logsim::quantized).
[[nodiscard]] std::vector<logsim::JobLogRecord> quantized_jobs(const sched::JobTrace& trace);

/// Job records of the context (ground-truth trace, else the loaded job
/// log) quantized in place to the job log's rounding.
[[nodiscard]] std::vector<logsim::JobLogRecord> quantized_jobs(const StudyContext& context);

/// The begin step every writer runs before its first artifact:
///   1. create `dir` and save the intent checkpoint (fleet profile and
///      `shard_count`);
///   2. remove the previous manifest.txt -- from here on a crash leaves a
///      checkpoint without a manifest, E_CKPT_INCOMPLETE under both
///      policies, so no removal below can expose a mix of two datasets;
///   3. remove the crash leftovers (every regular *.tmp / *.quarantined
///      file; one that cannot be removed is left for fsck to name) and
///      every dataset artifact scan_crash_state lists -- the write renames
///      its own artifacts in afresh, and files the dataset format does not
///      name are never touched;
///   4. hit the kill point "study/begin/cleared".
/// Returns the manifest's header lines: period, accounting cutoff, fleet
/// profile, and `shards N` for sharded datasets (shard_count > 0 only).
[[nodiscard]] std::vector<std::string> begin_write(const std::filesystem::path& dir,
                                                   const stats::StudyPeriod& period,
                                                   stats::TimeSec accounting_from,
                                                   const profile::FleetProfile& profile,
                                                   std::size_t shard_count);

/// The manifest line claiming `name`'s content checksum.
[[nodiscard]] std::string claim_line(std::string_view name, std::uint64_t checksum);

/// The commit point every writer ends with: the manifest lands last
/// (atomically), then the intent checkpoint goes.  The two sites are the
/// writer's kill points on either side of the manifest write.
void commit_manifest(const std::filesystem::path& dir, const std::vector<std::string>& manifest,
                     std::string_view pre_manifest_site, std::string_view committed_site);

/// Fill a container's meta block: study window, accounting cutoff and
/// fleet profile.
void stamp_meta(tdf::TdfDataset& data, const stats::StudyPeriod& period,
                stats::TimeSec accounting_from, const profile::FleetProfile& profile);

/// One container: frame rows [lo, hi) plus, with `side_artifacts`, the
/// context's quantized job log and smi sweep.
[[nodiscard]] tdf::TdfDataset container_of(const StudyContext& context, std::size_t lo,
                                           std::size_t hi, bool side_artifacts);

/// The one writer of binary containers from a context: the roster of
/// `layout` (dataset.tdf alone, or shards 0..N-1 with a `shards N`
/// manifest line), container s holding the even contiguous slice
/// [n*s/S, n*(s+1)/S) of the frame and the last one the side artifacts.
ShardedWriteStats write_roster(const StudyContext& context, const std::filesystem::path& dir,
                               const DatasetLayout& layout);

}  // namespace titan::study::detail
