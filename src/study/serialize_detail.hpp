// Shared serialization internals for the dataset writers (write_dataset
// and the sharded producers).  Both formats round-trip doubles through
// the text serialization so text, binary and sharded datasets of one
// context load byte-identically; these helpers are that quantization
// rule in one place.  Not a public API.
#pragma once

#include <string>
#include <vector>

#include "logsim/joblog.hpp"
#include "logsim/smi.hpp"
#include "study/context.hpp"

namespace titan::study::detail {

/// Console lines of the context, rendered from the frame's base columns
/// under the context's fleet profile (parallel, byte-identical at any
/// width).
[[nodiscard]] std::vector<std::string> console_lines_of(const StudyContext& context);

/// Job lines of the context (ground-truth trace, else the loaded job log).
[[nodiscard]] std::vector<std::string> job_lines_of(const StudyContext& context);

/// Job records quantized through the text serialization (what the binary
/// formats store).
[[nodiscard]] std::vector<logsim::JobLogRecord> quantized_jobs(const StudyContext& context);

/// Smi snapshot quantized through the text serialization.
[[nodiscard]] logsim::SmiSnapshot quantized_smi(const logsim::SmiSnapshot& snapshot);

}  // namespace titan::study::detail
