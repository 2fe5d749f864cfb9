// Shared serialization internals for the dataset writers (write_dataset
// and the sharded producers).  Both formats round-trip doubles through
// the text serialization so text, binary and sharded datasets of one
// context load byte-identically; these helpers are that quantization
// rule, the manifest header and the container builder in one place.  Not
// a public API.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "logsim/joblog.hpp"
#include "logsim/smi.hpp"
#include "profile/fleet_profile.hpp"
#include "study/context.hpp"
#include "tdf/tdf.hpp"

namespace titan::study::detail {

/// Console lines of the context, rendered from the frame's base columns
/// under the context's fleet profile (parallel, byte-identical at any
/// width).
[[nodiscard]] std::vector<std::string> console_lines_of(const StudyContext& context);

/// Job lines of the context (ground-truth trace, else the loaded job log).
[[nodiscard]] std::vector<std::string> job_lines_of(const StudyContext& context);

/// Job records quantized through the text serialization (what the binary
/// formats store), parsed back from their job-log lines.
[[nodiscard]] std::vector<logsim::JobLogRecord> quantized_jobs(
    const std::vector<std::string>& job_lines);

/// Smi snapshot quantized through the text serialization.
[[nodiscard]] logsim::SmiSnapshot quantized_smi(const logsim::SmiSnapshot& snapshot);

/// Save the intent checkpoint of a writer that reruns from a context (no
/// shard plan): until it commits, loaders reject the directory.
void save_write_intent(const StudyContext& context, const std::filesystem::path& dir);

/// The manifest's header lines: period, accounting cutoff, fleet
/// profile, and `shards N` for sharded datasets (shard_count > 0 only).
[[nodiscard]] std::vector<std::string> manifest_header(stats::TimeSec begin,
                                                       stats::TimeSec end,
                                                       stats::TimeSec accounting_from,
                                                       const profile::FleetProfile& profile,
                                                       std::size_t shard_count);

/// One container: frame rows [lo, hi) plus, with `side_artifacts`, the
/// context's quantized job log and smi sweep.
[[nodiscard]] tdf::TdfDataset container_of(const StudyContext& context, std::size_t lo,
                                           std::size_t hi, bool side_artifacts);

}  // namespace titan::study::detail
