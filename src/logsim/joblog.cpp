#include "logsim/joblog.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>

#include "logsim/quantize.hpp"

namespace titan::logsim {

namespace {

/// Decimals of the line's three double fields.
constexpr int kDecimals = 4;
/// The longest double at kDecimals fixed decimals: sign, every integer
/// digit of the largest double, point, decimals.
constexpr std::size_t kMaxFixedChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + kDecimals;
/// The longest integer field (a sign and 19 digits, or 20 unsigned digits).
constexpr std::size_t kMaxIntChars = 20;
/// Five integer fields, three doubles and seven separators.
constexpr std::size_t kMaxLineChars = 5 * kMaxIntChars + 3 * kMaxFixedChars + 7;

/// Split off the next pipe-separated field.
std::optional<std::string_view> next_field(std::string_view& rest) {
  if (rest.empty()) return std::nullopt;
  const auto pos = rest.find('|');
  std::string_view field = rest.substr(0, pos);
  rest = pos == std::string_view::npos ? std::string_view{} : rest.substr(pos + 1);
  return field;
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

JobLogRecord job_log_record(const sched::JobRecord& job) {
  JobLogRecord rec;
  rec.id = job.id;
  rec.user = job.user;
  rec.start = job.start;
  rec.end = job.end;
  rec.node_count = job.nodes.size();
  rec.gpu_core_hours = job.gpu_core_hours;
  rec.max_memory_gb = job.max_memory_gb;
  rec.total_memory_gb = job.total_memory_gb;
  return rec;
}

std::string job_log_line(const sched::JobRecord& job) {
  return job_log_line(job_log_record(job));
}

std::string job_log_line(const JobLogRecord& rec) {
  char buf[kMaxLineChars];
  char* const end = buf + sizeof(buf);
  char* p = buf;
  // `buf` holds the longest line, so no conversion fails; checking each
  // one keeps every separator write provably inside `buf`.
  const auto advance = [&](std::to_chars_result converted) {
    if (converted.ec != std::errc{}) throw std::length_error{"job_log_line: field overflow"};
    p = converted.ptr;
  };
  const auto put = [&](auto value) {
    if (p != buf) *p++ = '|';
    advance(std::to_chars(p, end, value));
  };
  const auto put_fixed = [&](double value) {
    *p++ = '|';
    advance(std::to_chars(p, end, value, std::chars_format::fixed, kDecimals));
  };
  put(rec.id);
  put(rec.user);
  put(rec.start);
  put(rec.end);
  put(rec.node_count);
  put_fixed(rec.gpu_core_hours);
  put_fixed(rec.max_memory_gb);
  put_fixed(rec.total_memory_gb);
  return std::string(buf, p);
}

JobLogRecord quantized(JobLogRecord rec) {
  for (double* value : {&rec.gpu_core_hours, &rec.max_memory_gb, &rec.total_memory_gb}) {
    *value = quantized(*value, kDecimals);
  }
  return rec;
}

std::vector<std::string> emit_job_log(const sched::JobTrace& trace) {
  std::vector<std::string> lines;
  lines.reserve(trace.jobs().size());
  for (const auto& job : trace.jobs()) lines.push_back(job_log_line(job));
  return lines;
}

std::optional<JobLogRecord> parse_job_log_line(std::string_view line) {
  JobLogRecord rec;
  std::string_view rest = line;
  const auto id = next_field(rest);
  const auto user = next_field(rest);
  const auto start = next_field(rest);
  const auto end = next_field(rest);
  const auto nodes = next_field(rest);
  const auto core_hours = next_field(rest);
  const auto max_mem = next_field(rest);
  const auto total_mem = next_field(rest);
  if (!id || !user || !start || !end || !nodes || !core_hours || !max_mem || !total_mem ||
      !rest.empty()) {
    return std::nullopt;
  }
  if (!parse_number(*id, rec.id) || !parse_number(*user, rec.user) ||
      !parse_number(*start, rec.start) || !parse_number(*end, rec.end) ||
      !parse_number(*nodes, rec.node_count) || !parse_number(*core_hours, rec.gpu_core_hours) ||
      !parse_number(*max_mem, rec.max_memory_gb) ||
      !parse_number(*total_mem, rec.total_memory_gb)) {
    return std::nullopt;
  }
  return rec;
}

}  // namespace titan::logsim
