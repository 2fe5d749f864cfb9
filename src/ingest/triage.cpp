#include "ingest/triage.hpp"

#include <algorithm>
#include <charconv>

#include "par/parallel.hpp"
#include "stats/rng.hpp"
#include "tdf/format.hpp"

namespace titan::ingest {

namespace {

constexpr std::string_view kCodeNames[kTriageCodeCount] = {
    "E_FILE_MISSING",      "E_NO_EVENTS",        "E_LINE_CRLF",
    "E_LINE_NUL",          "E_LINE_OVERLONG",    "E_FILE_UNTERMINATED",
    "E_CONSOLE_MALFORMED", "E_EVENT_DUPLICATE",  "E_EVENT_OUT_OF_ORDER",
    "E_JOB_MALFORMED",     "E_SMI_MALFORMED",    "E_MANIFEST_HEADER",
    "E_MANIFEST_FIELD",    "E_MANIFEST_UNKNOWN", "E_CHECKSUM_MISMATCH",
    "E_TDF_BAD_MAGIC",     "E_TDF_VERSION",      "E_TDF_TRUNCATED",
    "E_TDF_FOOTER",        "E_TDF_SEGMENT_CHECKSUM", "E_TDF_SEGMENT_CORRUPT",
    "E_TDF_UNKNOWN_SEGMENT", "E_FILE_TOO_LARGE",  "E_TDF_MMAP_UNAVAILABLE",
    "E_PROFILE_MISMATCH",  "E_ORPHAN_TMP",       "E_PARTIAL_SHARD_SET",
    "E_UNCLAIMED_ARTIFACT", "E_CKPT_HEADER",     "E_CKPT_FIELD",
    "E_CKPT_CHECKSUM",     "E_CKPT_INCOMPLETE",
};

constexpr std::string_view kActionNames[kSalvageActionCount] = {
    "rejected",
    "repaired",
    "quarantined",
    "ignored",
};

/// Walk `text` line by line with std::getline semantics: split on '\n',
/// a final fragment without a terminator is still a line, and a trailing
/// '\n' does not create an empty extra line.  Calls fn(line, line_no)
/// with 1-based numbering; the '\r' of a CRLF ending is NOT stripped here
/// (callers triage it so the repair is recorded).
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    fn(text.substr(pos, end - pos), ++line_no);
    pos = end + 1;
  }
}

/// Number of lines for_each_line visits.  Loaders reserve it up front: a
/// vector grown by doubling frees each smaller step, and over repeated
/// loads those freed steps fragment the heap and raise peak RSS.
std::size_t line_count(std::string_view text) {
  std::size_t breaks = 0;
  for (auto pos = text.find('\n'); pos != std::string_view::npos; pos = text.find('\n', pos + 1)) {
    ++breaks;
  }
  return breaks + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

/// Strip one trailing '\r' (CRLF repair), recording the finding.
std::string_view strip_crlf(std::string_view line, std::string_view file,
                            std::size_t line_no, IngestReport& report) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
    report.add(file, line_no, TriageCode::kLineCrlf, SalvageAction::kRepaired, {});
  }
  return line;
}

/// Record the missing-trailing-newline note (possible truncated write).
void note_termination(std::string_view text, std::string_view file, std::size_t last_line,
                      IngestReport& report) {
  if (!text.empty() && text.back() != '\n') {
    report.add(file, last_line, TriageCode::kFileUnterminated, SalvageAction::kIgnored,
               "no trailing newline (truncated write?)");
  }
}

/// Raise under kStrict, record under kSalvage.  Returns the action the
/// caller should account the line under (the one passed in).
void triage(IngestPolicy policy, IngestReport& report, std::string_view file,
            std::size_t line, TriageCode code, SalvageAction action,
            std::string_view detail) {
  if (policy == IngestPolicy::kStrict && fatal_in_strict(code)) {
    throw IngestError{std::string{file}, line, code, detail};
  }
  report.add(file, line, code, action, detail);
}

/// Short excerpt of a rejected line for diagnostics (detail strings stay
/// bounded even when the line is not).
std::string excerpt(std::string_view line) {
  constexpr std::size_t kMax = 48;
  std::string out;
  for (char c : line.substr(0, kMax)) {
    out += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  if (line.size() > kMax) out += "...";
  return out;
}

void append_count_row(std::string& out, std::string_view label, std::size_t count) {
  out += "  ";
  out += label;
  out.append(label.size() < 22 ? 22 - label.size() : 1, ' ');
  out += std::to_string(count);
  out += '\n';
}

}  // namespace

std::string_view policy_name(IngestPolicy policy) noexcept {
  return policy == IngestPolicy::kStrict ? "strict" : "salvage";
}

std::string_view code_name(TriageCode code) noexcept {
  return kCodeNames[static_cast<std::size_t>(code)];
}

std::string_view action_name(SalvageAction action) noexcept {
  return kActionNames[static_cast<std::size_t>(action)];
}

bool fatal_in_strict(TriageCode code) noexcept {
  // Exhaustive on purpose (no default): appending a TriageCode without
  // deciding its strict-mode fate is a -Wswitch error here, and
  // titanlint's taxo-switch-default rule keeps it that way.
  switch (code) {
    case TriageCode::kFileMissing:
    case TriageCode::kNoEvents:
    case TriageCode::kLineNul:
    case TriageCode::kLineOverlong:
    case TriageCode::kEventOutOfOrder:
    case TriageCode::kManifestHeader:
    case TriageCode::kManifestField:
    case TriageCode::kChecksumMismatch:
    case TriageCode::kTdfBadMagic:
    case TriageCode::kTdfVersionMismatch:
    case TriageCode::kTdfTruncated:
    case TriageCode::kTdfFooterCorrupt:
    case TriageCode::kTdfSegmentChecksum:
    case TriageCode::kTdfSegmentCorrupt:
    case TriageCode::kFileTooLarge:
    case TriageCode::kTdfMmapUnavailable:
    case TriageCode::kProfileMismatch:
    case TriageCode::kOrphanTmp:
    case TriageCode::kPartialShardSet:
    case TriageCode::kCkptHeader:
    case TriageCode::kCkptField:
    case TriageCode::kCkptChecksum:
    case TriageCode::kCkptIncomplete:
      return true;
    case TriageCode::kLineCrlf:
    case TriageCode::kFileUnterminated:
    case TriageCode::kConsoleMalformed:
    case TriageCode::kEventDuplicate:
    case TriageCode::kJobMalformed:
    case TriageCode::kSmiMalformed:
    case TriageCode::kManifestUnknown:
    case TriageCode::kTdfUnknownSegment:
    case TriageCode::kUnclaimedArtifact:
    case TriageCode::kCount_:
      return false;
  }
  return false;  // unreachable; keeps -Wreturn-type quiet on odd compilers
}

namespace {

std::string format_ingest_error(const std::string& file, std::size_t line, TriageCode code,
                                std::string_view detail) {
  std::string out = "dataset ingest failed [";
  out += code_name(code);
  out += "]\n  at ";
  out += file;
  if (line != 0) {
    out += ':';
    out += std::to_string(line);
  }
  if (!detail.empty()) {
    out += "\n  ";
    out += detail;
  }
  out += "\n  hint: load with IngestPolicy::kSalvage to repair/quarantine and get a "
         "triage report instead";
  return out;
}

}  // namespace

IngestError::IngestError(std::string file, std::size_t line, TriageCode code,
                         std::string_view detail)
    : std::runtime_error{format_ingest_error(file, line, code, detail)},
      file_{std::move(file)},
      line_{line},
      code_{code} {}

void IngestReport::add(std::string_view file, std::size_t line, TriageCode code,
                       SalvageAction action, std::string_view detail) {
  ++total_;
  ++code_counts_[static_cast<std::size_t>(code)];
  ++action_counts_[static_cast<std::size_t>(action)];
  if (retained_.size() < kDetailBudget) {
    retained_.push_back(Diagnostic{std::string{file}, line, code, action,
                                   std::string{detail}});
  }
}

void IngestReport::append(const IngestReport& other, std::size_t line_offset) {
  total_ += other.total_;
  for (std::size_t i = 0; i < kTriageCodeCount; ++i) code_counts_[i] += other.code_counts_[i];
  for (std::size_t i = 0; i < kSalvageActionCount; ++i) {
    action_counts_[i] += other.action_counts_[i];
  }
  for (const auto& diag : other.retained_) {
    if (retained_.size() >= kDetailBudget) break;
    retained_.push_back(diag);
    if (diag.line != 0) retained_.back().line += line_offset;
  }
  duplicates_removed += other.duplicates_removed;
  events_resorted += other.events_resorted;
  lines_quarantined += other.lines_quarantined;
}

std::string IngestReport::summary_text() const {
  std::string out;
  out += "policy      : ";
  out += policy_name(policy_);
  out += '\n';
  out += "diagnostics : " + std::to_string(total_) + " (rejected " +
         std::to_string(count(SalvageAction::kRejected)) + ", repaired " +
         std::to_string(count(SalvageAction::kRepaired)) + ", quarantined " +
         std::to_string(count(SalvageAction::kQuarantined)) + ", ignored " +
         std::to_string(count(SalvageAction::kIgnored)) + ")\n";
  out += "repairs     : " + std::to_string(duplicates_removed) + " duplicate events removed, " +
         std::to_string(events_resorted) + " events re-sorted, " +
         std::to_string(lines_quarantined) + " spans quarantined\n";
  for (std::size_t i = 0; i < kTriageCodeCount; ++i) {
    if (code_counts_[i] == 0) continue;
    append_count_row(out, kCodeNames[i], code_counts_[i]);
  }
  constexpr std::size_t kShown = 8;
  if (!retained_.empty()) {
    out += "first findings";
    if (dropped() != 0) {
      out += " (" + std::to_string(dropped()) + " beyond the " +
             std::to_string(kDetailBudget) + "-entry budget)";
    }
    out += ":\n";
    for (std::size_t i = 0; i < retained_.size() && i < kShown; ++i) {
      const auto& d = retained_[i];
      out += "  " + d.file + ":" + std::to_string(d.line) + " [" +
             std::string{code_name(d.code)} + "] " + std::string{action_name(d.action)};
      if (!d.detail.empty()) out += ": " + d.detail;
      out += '\n';
    }
    if (retained_.size() > kShown) {
      out += "  ... " + std::to_string(retained_.size() - kShown) + " more retained\n";
    }
  }
  return out;
}

std::uint64_t content_checksum(std::string_view bytes) noexcept {
  return stats::hash_label(bytes);
}

std::uint64_t claim_chunk_digest(std::string_view text, std::size_t chunk) noexcept {
  const auto bytes = text.substr(chunk * kClaimChunkBytes, kClaimChunkBytes);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::array<std::uint64_t, kClaimLanes> lanes;
  lanes.fill(stats::kFnv1aBasis);
  const std::size_t whole = bytes.size() - bytes.size() % kClaimLanes;
  for (std::size_t i = 0; i < whole; i += kClaimLanes) {
    for (std::size_t k = 0; k < kClaimLanes; ++k) {
      lanes[k] = (lanes[k] ^ p[i + k]) * stats::kFnv1aPrime;
    }
  }
  for (std::size_t k = 0; whole + k < bytes.size(); ++k) {
    lanes[k] = (lanes[k] ^ p[whole + k]) * stats::kFnv1aPrime;
  }
  std::uint64_t h = stats::kFnv1aBasis;
  for (const auto lane : lanes) h = stats::hash_extend_u64(h, lane);
  return h;
}

std::uint64_t fold_text_claim(std::size_t bytes,
                              std::span<const std::uint64_t> digests) noexcept {
  std::uint64_t h = stats::hash_extend_u64(stats::kFnv1aBasis, bytes);
  for (const auto digest : digests) h = stats::hash_extend_u64(h, digest);
  return h;
}

std::uint64_t text_claim(std::string_view text) {
  const auto digests = par::parallel_map(0, claim_chunk_count(text.size()), 1, [&](std::size_t c) {
    return claim_chunk_digest(text, c);
  });
  return fold_text_claim(text.size(), digests);
}

std::uint64_t artifact_claim(std::uint32_t version, std::string_view name,
                             std::string_view bytes) {
  if (version == 1) return content_checksum(bytes);
  return name.ends_with(".tdf") ? tdf::container_claim(bytes) : text_claim(bytes);
}

std::string checksum_hex(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

namespace {

/// The event a raw console line adds to the stream, decided as the line
/// walk decides it: CRLF stripped, NUL and overlong lines quarantined.
std::optional<parse::ParsedEvent> stream_event(std::string_view raw) {
  if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
  if (raw.find('\0') != std::string_view::npos || raw.size() > parse::kMaxConsoleLineLength) {
    return std::nullopt;
  }
  return parse::parse_console_line(raw);
}

/// The raw line ending just before `begin`, a line start of `text` ("" at
/// the start of the text).
std::string_view line_before(std::string_view text, std::size_t begin) {
  if (begin == 0) return {};
  const std::size_t newline = begin - 1;
  const auto prior = newline == 0 ? std::string_view::npos : text.rfind('\n', newline - 1);
  const std::size_t start = prior == std::string_view::npos ? 0 : prior + 1;
  return text.substr(start, newline - start);
}

/// The out-of-order finding's detail.
std::string regression_detail(stats::TimeSec time, stats::TimeSec previous) {
  return "timestamp " + stats::format_timestamp(time) + " precedes the previous event (" +
         stats::format_timestamp(previous) + ")";
}

/// Move `part` onto the end of `out`, releasing part's storage.
template <typename T>
void append_moved(std::vector<T>& out, std::vector<T>& part) {
  out.insert(out.end(), part.begin(), part.end());
  std::vector<T>{}.swap(part);
}

}  // namespace

std::vector<TextChunk> split_lines(std::string_view text, std::size_t pieces) {
  std::vector<TextChunk> chunks;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.size();
    // Spread what is left evenly over the pieces still to cut, so a line
    // longer than a chunk costs one piece, not the rest of the split.
    const std::size_t left = pieces > chunks.size() ? pieces - chunks.size() : 1;
    if (left > 1) {
      const std::size_t step = std::max<std::size_t>(1, (text.size() - begin) / left);
      const auto newline = text.find('\n', begin + step - 1);
      if (newline != std::string_view::npos) end = newline + 1;
    }
    chunks.push_back(TextChunk{begin, end});
    begin = end;
  }
  return chunks;
}

std::vector<TextChunk> load_chunks(std::string_view text) {
  return split_lines(text, text.size() / kChunkBytes + 1);
}

ConsoleChunk ingest_console_chunk(std::string_view text, TextChunk chunk, std::string_view file,
                                  IngestPolicy policy) {
  ConsoleChunk out{ConsoleIngest{}, IngestReport{policy}, IngestReport{policy},
                   std::nullopt,    std::nullopt,         std::nullopt};
  auto& product = out.product;
  const auto body = text.substr(chunk.begin, chunk.end - chunk.begin);
  product.events.reserve(line_count(body));
  // The duplicate check's seed; the regression check's waits for the merge.
  std::string_view prev_raw = line_before(text, chunk.begin);
  bool prev_was_event = chunk.begin > 0 && stream_event(prev_raw).has_value();
  auto& last_time = out.last_time;
  IngestReport* report = &out.head;  // `tail` once the check is pending

  // Record a finding; a strict-fatal one stops the chunk instead.
  const auto stopped = [&](std::size_t line_no, TriageCode code, SalvageAction action,
                           std::string_view detail) {
    if (policy == IngestPolicy::kStrict && fatal_in_strict(code)) {
      out.stop = ChunkStop{line_no, code, std::string{detail}};
      return true;
    }
    report->add(file, line_no, code, action, detail);
    return false;
  };

  for_each_line(body, [&](std::string_view raw, std::size_t line_no) {
    if (out.stop) return;
    ++product.lines;
    const std::string_view line = strip_crlf(raw, file, line_no, *report);
    const bool has_marker = line.find(parse::kGpuMarker) != std::string_view::npos;

    if (line.find('\0') != std::string_view::npos) {
      if (stopped(line_no, TriageCode::kLineNul, SalvageAction::kQuarantined,
                  "embedded NUL byte")) {
        return;
      }
      ++report->lines_quarantined;
      ++(has_marker ? product.malformed : product.unrelated);
      prev_was_event = false;
      prev_raw = raw;
      return;
    }
    if (line.size() > parse::kMaxConsoleLineLength) {
      if (stopped(line_no, TriageCode::kLineOverlong, SalvageAction::kQuarantined,
                  "line of " + std::to_string(line.size()) + " bytes (cap " +
                      std::to_string(parse::kMaxConsoleLineLength) + ")")) {
        return;
      }
      ++report->lines_quarantined;
      ++(has_marker ? product.malformed : product.unrelated);
      prev_was_event = false;
      prev_raw = raw;
      return;
    }

    const auto event = parse::parse_console_line(line);
    if (!event) {
      if (has_marker) {
        ++product.malformed;
        report->add(file, line_no, TriageCode::kConsoleMalformed, SalvageAction::kRejected,
                    excerpt(line));
      } else {
        ++product.unrelated;  // ordinary SMW chatter; not an error
      }
      prev_was_event = false;
      prev_raw = raw;
      return;
    }

    // The paper's double-count pathology: the same event line written
    // twice.  Salvage drops the byte-identical adjacent copy; strict
    // keeps both (duplicates are data, not structural corruption).  The
    // copy's time is the previous event's.
    if (policy == IngestPolicy::kSalvage && prev_was_event && raw == prev_raw) {
      report->add(file, line_no, TriageCode::kEventDuplicate, SalvageAction::kRepaired,
                  "byte-identical adjacent event line");
      ++report->duplicates_removed;
      last_time = event->time;
      return;
    }

    if (!last_time) {
      out.pending = PendingCheck{line_no, event->time};
      report = &out.tail;
    } else if (event->time < *last_time) {
      if (stopped(line_no, TriageCode::kEventOutOfOrder, SalvageAction::kRepaired,
                  regression_detail(event->time, *last_time))) {
        return;
      }
      ++report->events_resorted;
    }
    product.events.push_back(*event);
    last_time = event->time;
    prev_was_event = true;
    prev_raw = raw;
  });
  return out;
}

ConsoleIngest merge_console_chunks(std::string_view text, std::string_view file,
                                   IngestPolicy policy, std::span<ConsoleChunk> chunks,
                                   IngestReport& report) {
  ConsoleIngest out;
  std::size_t events = 0;
  for (const auto& chunk : chunks) events += chunk.product.events.size();
  out.events.reserve(events);
  const std::size_t resorted_before = report.events_resorted;
  std::optional<stats::TimeSec> last_time;  // of the last event line so far
  for (auto& chunk : chunks) {
    report.append(chunk.head, out.lines);
    if (const auto& check = chunk.pending; check && last_time && check->time < *last_time) {
      triage(policy, report, file, out.lines + check->line, TriageCode::kEventOutOfOrder,
             SalvageAction::kRepaired, regression_detail(check->time, *last_time));
      ++report.events_resorted;
    }
    report.append(chunk.tail, out.lines);
    if (chunk.stop) {
      throw IngestError{std::string{file}, out.lines + chunk.stop->line, chunk.stop->code,
                        chunk.stop->detail};
    }
    append_moved(out.events, chunk.product.events);
    out.lines += chunk.product.lines;
    out.malformed += chunk.product.malformed;
    out.unrelated += chunk.product.unrelated;
    if (chunk.last_time) last_time = chunk.last_time;
  }
  note_termination(text, file, out.lines, report);
  if (report.events_resorted != resorted_before) {
    // Stable: equal timestamps keep their on-disk order, so the repair is
    // deterministic and minimal.
    std::stable_sort(out.events.begin(), out.events.end(),
                     [](const parse::ParsedEvent& a, const parse::ParsedEvent& b) {
                       return a.time < b.time;
                     });
  }
  return out;
}

ConsoleIngest ingest_console_text(std::string_view text, std::string_view file,
                                  IngestPolicy policy, IngestReport& report, std::size_t chunks) {
  const auto spans = chunks != 0 ? split_lines(text, chunks) : load_chunks(text);
  std::vector<ConsoleChunk> parts(spans.size());
  par::parallel_for(0, spans.size(), 1, [&](std::size_t i) {
    parts[i] = ingest_console_chunk(text, spans[i], file, policy);
  });
  return merge_console_chunks(text, file, policy, parts, report);
}

JobChunk ingest_job_chunk(std::string_view text, TextChunk chunk, std::string_view file,
                          IngestPolicy policy) {
  // No job-log finding is fatal in strict mode: the chunk never stops.
  JobChunk out{JobIngest{}, IngestReport{policy}};
  auto& product = out.product;
  const auto body = text.substr(chunk.begin, chunk.end - chunk.begin);
  product.records.reserve(line_count(body));
  for_each_line(body, [&](std::string_view raw, std::size_t line_no) {
    ++product.lines;
    const std::string_view line = strip_crlf(raw, file, line_no, out.report);
    if (const auto record = logsim::parse_job_log_line(line)) {
      product.records.push_back(*record);
    } else {
      ++product.malformed;
      out.report.add(file, line_no, TriageCode::kJobMalformed, SalvageAction::kRejected,
                     excerpt(line));
    }
  });
  return out;
}

JobIngest merge_job_chunks(std::string_view text, std::string_view file,
                           std::span<JobChunk> chunks, IngestReport& report) {
  JobIngest out;
  std::size_t records = 0;
  for (const auto& chunk : chunks) records += chunk.product.records.size();
  out.records.reserve(records);
  for (auto& chunk : chunks) {
    report.append(chunk.report, out.lines);
    append_moved(out.records, chunk.product.records);
    out.lines += chunk.product.lines;
    out.malformed += chunk.product.malformed;
  }
  note_termination(text, file, out.lines, report);
  return out;
}

JobIngest ingest_job_text(std::string_view text, std::string_view file, IngestPolicy policy,
                          IngestReport& report, std::size_t chunks) {
  const auto spans = chunks != 0 ? split_lines(text, chunks) : load_chunks(text);
  std::vector<JobChunk> parts(spans.size());
  par::parallel_for(0, spans.size(), 1, [&](std::size_t i) {
    parts[i] = ingest_job_chunk(text, spans[i], file, policy);
  });
  return merge_job_chunks(text, file, parts, report);
}

logsim::SmiSweepParse ingest_smi_text(std::string_view text, std::string_view file,
                                      IngestPolicy policy, IngestReport& report) {
  (void)policy;  // malformed smi blocks are counted, never fatal
  auto sweep = logsim::parse_smi_sweep_text(text);
  if (sweep.malformed_blocks != 0) {
    report.add(file, 0, TriageCode::kSmiMalformed, SalvageAction::kQuarantined,
               std::to_string(sweep.malformed_blocks) + " unparseable GPU block(s)");
  }
  return sweep;
}

namespace {

/// "key <integer>" manifest line; true when the key matched (with `ok`
/// telling whether the value parsed).
bool match_manifest_int(std::string_view line, std::string_view key, stats::TimeSec& out,
                        bool& ok) {
  if (!line.starts_with(key)) return false;
  auto rest = line.substr(key.size());
  if (rest.empty() || rest.front() != ' ') return false;
  rest.remove_prefix(1);
  stats::TimeSec value = 0;
  const auto result = std::from_chars(rest.data(), rest.data() + rest.size(), value);
  ok = result.ec == std::errc{} && result.ptr == rest.data() + rest.size();
  if (ok) out = value;
  return true;
}

}  // namespace

bool ManifestIngest::claims(std::string_view file) const {
  return std::any_of(checksums.begin(), checksums.end(),
                     [&](const auto& claim) { return claim.first == file; });
}

ManifestIngest ingest_manifest_text(std::string_view text, std::string_view file,
                                    IngestPolicy policy, IngestReport& report) {
  ManifestIngest out;
  std::size_t last_line = 0;
  for_each_line(text, [&](std::string_view raw, std::size_t line_no) {
    last_line = line_no;
    const std::string_view line = strip_crlf(raw, file, line_no, report);
    if (line_no == 1) {
      if (line == kDatasetManifestHeaderV1) {
        out.version = 1;
      } else if (line != kDatasetManifestHeader) {
        triage(policy, report, file, line_no, TriageCode::kManifestHeader,
               SalvageAction::kIgnored,
               "expected '" + std::string{kDatasetManifestHeader} + "', got '" +
                   excerpt(line) + "'");
      }
      return;
    }
    if (line.empty()) return;

    const auto handle_int = [&](std::string_view key, stats::TimeSec& slot,
                                bool& have) -> bool {
      bool ok = false;
      if (!match_manifest_int(line, key, slot, ok)) return false;
      if (ok) {
        have = true;
      } else {
        triage(policy, report, file, line_no, TriageCode::kManifestField,
               SalvageAction::kRejected, excerpt(line));
      }
      return true;
    };
    if (handle_int("period_begin", out.begin, out.have_begin) ||
        handle_int("period_end", out.end, out.have_end) ||
        handle_int("accounting_from", out.accounting, out.have_accounting)) {
      return;
    }

    // "shards N": the sharded-layout container count (must be positive).
    {
      stats::TimeSec shards = 0;
      bool ok = false;
      if (match_manifest_int(line, "shards", shards, ok)) {
        if (ok && shards > 0) {
          out.have_shards = true;
          out.shards = static_cast<std::uint64_t>(shards);
        } else {
          triage(policy, report, file, line_no, TriageCode::kManifestField,
                 SalvageAction::kRejected, excerpt(line));
        }
        return;
      }
    }

    // "profile <name> <hash-hex>": the fleet profile the producer ran
    // under (validated against the load's profile by DatasetSource).
    if (line.starts_with("profile ")) {
      const auto rest = line.substr(8);
      const auto space = rest.find(' ');
      std::uint64_t value = 0;
      bool parsed = false;
      if (space != std::string_view::npos && space > 0) {
        const auto hex = rest.substr(space + 1);
        const auto result =
            std::from_chars(hex.data(), hex.data() + hex.size(), value, 16);
        parsed = !hex.empty() && result.ec == std::errc{} &&
                 result.ptr == hex.data() + hex.size();
      }
      if (!parsed) {
        triage(policy, report, file, line_no, TriageCode::kManifestField,
               SalvageAction::kRejected, excerpt(line));
        return;
      }
      out.have_profile = true;
      out.profile_name = std::string{rest.substr(0, space)};
      out.profile_hash = value;
      return;
    }

    if (line.starts_with("checksum ")) {
      const auto rest = line.substr(9);
      const auto space = rest.find(' ');
      std::uint64_t value = 0;
      bool parsed = false;
      if (space != std::string_view::npos) {
        const auto hex = rest.substr(space + 1);
        const auto result =
            std::from_chars(hex.data(), hex.data() + hex.size(), value, 16);
        parsed = !hex.empty() && result.ec == std::errc{} &&
                 result.ptr == hex.data() + hex.size();
      }
      if (!parsed) {
        triage(policy, report, file, line_no, TriageCode::kManifestField,
               SalvageAction::kRejected, excerpt(line));
        return;
      }
      out.checksums.emplace_back(std::string{rest.substr(0, space)}, value);
      return;
    }

    // Unknown keys are forward-compatible: noted, never fatal.
    report.add(file, line_no, TriageCode::kManifestUnknown, SalvageAction::kIgnored,
               excerpt(line));
  });
  note_termination(text, file, last_line, report);
  return out;
}

}  // namespace titan::ingest
