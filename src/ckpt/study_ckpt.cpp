#include "ckpt/study_ckpt.hpp"

#include <charconv>
#include <fstream>
#include <iterator>
#include <string_view>
#include <system_error>
#include <vector>

#include "faulttest/atomic_file.hpp"
#include "faulttest/faulttest.hpp"

namespace titan::ckpt {

namespace {

namespace fs = std::filesystem;
using ingest::IngestError;
using ingest::IngestPolicy;
using ingest::IngestReport;
using ingest::SalvageAction;
using ingest::TriageCode;

/// Record the finding (or throw under strict) and abandon the decode.
std::optional<StudyCheckpoint> reject(std::string_view file, std::size_t line,
                                      TriageCode code, std::string_view detail,
                                      IngestPolicy policy, IngestReport& report) {
  if (policy == IngestPolicy::kStrict) {
    throw IngestError{std::string{file}, line, code, detail};
  }
  report.add(file, line, code, SalvageAction::kRejected, detail);
  return std::nullopt;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out, 10);
  return ec == std::errc{} && ptr == end && !text.empty();
}

bool parse_hex64(std::string_view text, std::uint64_t& out) {
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out, 16);
  return ec == std::errc{} && ptr == end && text.size() == 16;
}

/// Pop the next space-delimited token; empty when exhausted.
std::string_view next_token(std::string_view& rest) {
  const auto start = rest.find_first_not_of(' ');
  if (start == std::string_view::npos) {
    rest = {};
    return {};
  }
  rest.remove_prefix(start);
  const auto stop = rest.find(' ');
  const auto token = rest.substr(0, stop);
  rest.remove_prefix(stop == std::string_view::npos ? rest.size() : stop);
  return token;
}

}  // namespace

std::string StudyCheckpoint::encode() const {
  std::string body{kStudyCheckpointHeader};
  body += '\n';
  body += "profile " + profile_name + ' ' + ingest::checksum_hex(profile_hash) + '\n';
  body += "shards " + std::to_string(shard_count) + '\n';
  // Self-checksum over every preceding byte: a checkpoint torn by the
  // very crash it guards against must not decode as a shorter-but-valid
  // record.
  body += "checksum " + ingest::checksum_hex(ingest::content_checksum(body)) + '\n';
  return body;
}

std::optional<StudyCheckpoint> decode_study_checkpoint(std::string_view text,
                                                       std::string_view file,
                                                       IngestPolicy policy,
                                                       IngestReport& report) {
  // The checksum line must be the last line; everything before it is the
  // hashed body.
  if (text.empty() || text.back() != '\n') {
    return reject(file, 0, TriageCode::kCkptChecksum,
                  "checkpoint is empty or lacks a terminated checksum line", policy,
                  report);
  }
  const auto last_start = text.find_last_of('\n', text.size() - 2);
  const std::size_t body_len = last_start == std::string_view::npos ? 0 : last_start + 1;
  std::string_view last = text.substr(body_len, text.size() - body_len - 1);
  if (!last.starts_with("checksum ")) {
    return reject(file, 0, TriageCode::kCkptChecksum,
                  "final line is not the self-checksum", policy, report);
  }
  std::uint64_t claimed = 0;
  if (!parse_hex64(last.substr(9), claimed)) {
    return reject(file, 0, TriageCode::kCkptChecksum,
                  "self-checksum value is not 16 hex digits", policy, report);
  }
  const auto actual = ingest::content_checksum(text.substr(0, body_len));
  if (actual != claimed) {
    return reject(file, 0, TriageCode::kCkptChecksum,
                  "self-checksum mismatch: claimed " + ingest::checksum_hex(claimed) +
                      ", content hashes to " + ingest::checksum_hex(actual),
                  policy, report);
  }

  // Body lines, in fixed order.
  std::vector<std::string_view> lines;
  std::string_view body = text.substr(0, body_len);
  while (!body.empty()) {
    const auto stop = body.find('\n');
    lines.push_back(body.substr(0, stop));
    body.remove_prefix(stop + 1);
  }
  if (lines.empty() || lines[0] != kStudyCheckpointHeader) {
    return reject(file, 1, TriageCode::kCkptHeader,
                  "expected header '" + std::string{kStudyCheckpointHeader} + "'", policy,
                  report);
  }
  if (lines.size() != 3) {
    return reject(file, lines.size(), TriageCode::kCkptField,
                  "expected exactly a profile and a shards line, found " +
                      std::to_string(lines.size() - 1) + " lines",
                  policy, report);
  }

  StudyCheckpoint out;
  {
    std::string_view rest = lines[1];
    if (!rest.starts_with("profile ")) {
      return reject(file, 2, TriageCode::kCkptField, "malformed profile line", policy,
                    report);
    }
    rest.remove_prefix(8);
    const auto name = next_token(rest);
    const auto hash = next_token(rest);
    if (name.empty() || !parse_hex64(hash, out.profile_hash) ||
        !next_token(rest).empty()) {
      return reject(file, 2, TriageCode::kCkptField, "malformed profile line", policy,
                    report);
    }
    out.profile_name = std::string{name};
  }
  std::uint64_t shards = 0;
  if (!lines[2].starts_with("shards ") || !parse_u64(lines[2].substr(7), shards)) {
    return reject(file, 3, TriageCode::kCkptField, "malformed shards line", policy,
                  report);
  }
  out.shard_count = static_cast<std::size_t>(shards);
  return out;
}

void save_study_checkpoint(const StudyCheckpoint& ckpt, const fs::path& dir) {
  TITAN_PTP("ckpt/pre-save");
  faulttest::atomic_write_file(dir / kStudyCheckpointFileName, ckpt.encode(),
                               "save_study_checkpoint");
}

std::optional<StudyCheckpoint> load_study_checkpoint(const fs::path& dir,
                                                     IngestPolicy policy,
                                                     IngestReport& report) {
  // Local slurp (not study::io) keeps ckpt below study in the module
  // stack; checkpoints are small, so no size-cap ceremony is needed.
  const auto path = dir / kStudyCheckpointFileName;
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::string text{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  return decode_study_checkpoint(text, kStudyCheckpointFileName, policy, report);
}

void remove_study_checkpoint(const fs::path& dir) noexcept {
  std::error_code ec;
  fs::remove(dir / kStudyCheckpointFileName, ec);
}

}  // namespace titan::ckpt
