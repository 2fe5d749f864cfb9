// Batch-job accounting log (RUR-style): the "job logs and resource
// utilization logs" the Section 4 correlation study joins against.
//
// One record per line, pipe-separated:
//   jobid|userid|start|end|nodes|gpu_core_hours|max_mem_gb|total_mem_gb
// Node lists are not serialized (real RUR stores an allocation id); the
// trace remains the authority for placement.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sched/job.hpp"

namespace titan::logsim {

/// Fields recoverable from one accounting line.
struct JobLogRecord {
  xid::JobId id = xid::kNoJob;
  xid::UserId user = xid::kNoUser;
  stats::TimeSec start = 0;
  stats::TimeSec end = 0;
  std::size_t node_count = 0;
  double gpu_core_hours = 0.0;
  double max_memory_gb = 0.0;
  double total_memory_gb = 0.0;
};

/// The accounting fields of `job`, unrounded.
[[nodiscard]] JobLogRecord job_log_record(const sched::JobRecord& job);

/// One accounting line: integers in full, doubles at four fixed
/// decimals (std::to_chars, the rounding of printf's "%.4f").
[[nodiscard]] std::string job_log_line(const sched::JobRecord& job);

/// Re-serialize an already-parsed record (same field formatting), so a
/// loaded dataset can be written back without the scheduler-side truth.
[[nodiscard]] std::string job_log_line(const JobLogRecord& rec);

/// `rec` as its accounting line carries it: each double through
/// quantized(value, 4) (logsim/quantize.hpp), so the result equals
/// parse_job_log_line(job_log_line(rec)) field for field with no line
/// rendered.
[[nodiscard]] JobLogRecord quantized(JobLogRecord rec);

[[nodiscard]] std::vector<std::string> emit_job_log(const sched::JobTrace& trace);

/// Parse one accounting line; std::nullopt on malformed input.
[[nodiscard]] std::optional<JobLogRecord> parse_job_log_line(std::string_view line);

}  // namespace titan::logsim
