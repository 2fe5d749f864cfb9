// nvidia-smi query-text facade: renders a card's counters the way
// `nvidia-smi -q -d ECC,PAGE_RETIREMENT,TEMPERATURE` prints them, and
// parses such blocks back.  The operational tooling the paper describes
// scrapes exactly this text from every node, so the round-trip is part of
// the pipeline being reproduced.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "logsim/smi.hpp"

namespace titan::logsim {

/// Render one card's record as an nvidia-smi-style text block.
[[nodiscard]] std::string smi_query_text(const SmiCardRecord& record);

/// Render a whole snapshot (blocks separated by blank lines, preceded by
/// a sweep header with the timestamp).
[[nodiscard]] std::string smi_sweep_text(const SmiSnapshot& snapshot);

/// Parse one block back into a record.  std::nullopt on malformed text.
[[nodiscard]] std::optional<SmiCardRecord> parse_smi_query_text(std::string_view text);

/// Parse a sweep produced by smi_sweep_text.
struct SmiSweepParse {
  stats::TimeSec taken_at = 0;
  std::vector<SmiCardRecord> records;
  std::size_t malformed_blocks = 0;
};

[[nodiscard]] SmiSweepParse parse_smi_sweep_text(std::string_view text);

/// `snapshot` as its sweep text carries it: taken_at through
/// format_timestamp and parse_timestamp, each temperature through
/// quantized(value, 1) (logsim/quantize.hpp; the rounding of "%.1f").
/// Field for field this is what parse_smi_sweep_text(smi_sweep_text())
/// returns for records of valid nodes, with no text rendered.
[[nodiscard]] SmiSnapshot quantized(SmiSnapshot snapshot);

}  // namespace titan::logsim
