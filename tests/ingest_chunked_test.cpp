// Differential oracle for the chunked text ingest: the serial console and
// job-log walks the loader used before chunking are kept here verbatim,
// and the chunked split + parse + merge must reproduce them exactly --
// events field by field, line/malformed/unrelated counts, every report
// tally and retained detail, summary_text, and the strict IngestError
// (file, line, code, message) -- at forced chunk counts 1, 2, 3, 7, the
// load's own count, and one chunk per line.  Inputs: the clean dataset,
// every text corruption operator alone and stacked, and hand-built seams
// (a chunk boundary between a duplicate pair, across a regression, next
// to NUL/overlong/CRLF/malformed lines, at an unterminated tail, and
// inside a run of non-event lines longer than a chunk).  Plus the load's
// error precedence: a manifest verdict always surfaces before any parse
// finding; and the v2 text claim against a naive strided reference.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/facility.hpp"
#include "ingest/corrupt.hpp"
#include "ingest/triage.hpp"
#include "par/pool.hpp"
#include "stats/rng.hpp"
#include "study/io.hpp"
#include "study/source.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using ingest::CorruptionOp;
using ingest::IngestError;
using ingest::IngestPolicy;
using ingest::IngestReport;
using ingest::SalvageAction;
using ingest::TriageCode;

// ---------------------------------------------------------------------------
// The serial oracle: one walk over the lines, as the loader ran it before
// the chunked ingest.
// ---------------------------------------------------------------------------

namespace oracle {

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

std::string_view strip_crlf(std::string_view line, std::string_view file, std::size_t line_no,
                            IngestReport& report) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
    report.add(file, line_no, TriageCode::kLineCrlf, SalvageAction::kRepaired, {});
  }
  return line;
}

void note_termination(std::string_view text, std::string_view file, std::size_t last_line,
                      IngestReport& report) {
  if (!text.empty() && text.back() != '\n') {
    report.add(file, last_line, TriageCode::kFileUnterminated, SalvageAction::kIgnored,
               "no trailing newline (truncated write?)");
  }
}

void triage(IngestPolicy policy, IngestReport& report, std::string_view file, std::size_t line,
            TriageCode code, SalvageAction action, std::string_view detail) {
  if (policy == IngestPolicy::kStrict && ingest::fatal_in_strict(code)) {
    throw IngestError{std::string{file}, line, code, detail};
  }
  report.add(file, line, code, action, detail);
}

std::string excerpt(std::string_view line) {
  constexpr std::size_t kMax = 48;
  std::string out;
  for (char c : line.substr(0, kMax)) {
    out += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  if (line.size() > kMax) out += "...";
  return out;
}

ingest::ConsoleIngest console(std::string_view text, std::string_view file, IngestPolicy policy,
                              IngestReport& report) {
  ingest::ConsoleIngest out;
  std::string_view prev_raw;
  bool prev_was_event = false;
  bool sorted = true;
  std::size_t last_line = 0;

  for_each_line(text, [&](std::string_view raw, std::size_t line_no) {
    ++out.lines;
    last_line = line_no;
    const std::string_view line = strip_crlf(raw, file, line_no, report);
    const bool has_marker = line.find(parse::kGpuMarker) != std::string_view::npos;

    if (line.find('\0') != std::string_view::npos) {
      triage(policy, report, file, line_no, TriageCode::kLineNul, SalvageAction::kQuarantined,
             "embedded NUL byte");
      ++report.lines_quarantined;
      ++(has_marker ? out.malformed : out.unrelated);
      prev_was_event = false;
      prev_raw = raw;
      return;
    }
    if (line.size() > parse::kMaxConsoleLineLength) {
      triage(policy, report, file, line_no, TriageCode::kLineOverlong,
             SalvageAction::kQuarantined,
             "line of " + std::to_string(line.size()) + " bytes (cap " +
                 std::to_string(parse::kMaxConsoleLineLength) + ")");
      ++report.lines_quarantined;
      ++(has_marker ? out.malformed : out.unrelated);
      prev_was_event = false;
      prev_raw = raw;
      return;
    }

    const auto event = parse::parse_console_line(line);
    if (!event) {
      if (has_marker) {
        ++out.malformed;
        report.add(file, line_no, TriageCode::kConsoleMalformed, SalvageAction::kRejected,
                   excerpt(line));
      } else {
        ++out.unrelated;
      }
      prev_was_event = false;
      prev_raw = raw;
      return;
    }

    if (policy == IngestPolicy::kSalvage && prev_was_event && raw == prev_raw) {
      report.add(file, line_no, TriageCode::kEventDuplicate, SalvageAction::kRepaired,
                 "byte-identical adjacent event line");
      ++report.duplicates_removed;
      return;
    }

    if (!out.events.empty() && event->time < out.events.back().time) {
      triage(policy, report, file, line_no, TriageCode::kEventOutOfOrder,
             SalvageAction::kRepaired,
             "timestamp " + stats::format_timestamp(event->time) +
                 " precedes the previous event (" +
                 stats::format_timestamp(out.events.back().time) + ")");
      ++report.events_resorted;
      sorted = false;
    }
    out.events.push_back(*event);
    prev_was_event = true;
    prev_raw = raw;
  });

  note_termination(text, file, last_line, report);
  if (!sorted) {
    std::stable_sort(out.events.begin(), out.events.end(),
                     [](const parse::ParsedEvent& a, const parse::ParsedEvent& b) {
                       return a.time < b.time;
                     });
  }
  return out;
}

ingest::JobIngest jobs(std::string_view text, std::string_view file, IngestReport& report) {
  ingest::JobIngest out;
  std::size_t last_line = 0;
  for_each_line(text, [&](std::string_view raw, std::size_t line_no) {
    ++out.lines;
    last_line = line_no;
    const std::string_view line = strip_crlf(raw, file, line_no, report);
    if (const auto record = logsim::parse_job_log_line(line)) {
      out.records.push_back(*record);
    } else {
      ++out.malformed;
      report.add(file, line_no, TriageCode::kJobMalformed, SalvageAction::kRejected,
                 excerpt(line));
    }
  });
  note_termination(text, file, last_line, report);
  return out;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Comparison harness.
// ---------------------------------------------------------------------------

/// What one ingest run produced: the product or the strict error, and the
/// report as the run left it.
template <typename Product>
struct Outcome {
  std::optional<Product> product;
  std::optional<IngestError> error;
  IngestReport report;
};

template <typename Product, typename Fn>
Outcome<Product> capture(IngestPolicy policy, Fn&& fn) {
  Outcome<Product> out{std::nullopt, std::nullopt, IngestReport{policy}};
  try {
    out.product = fn(out.report);
  } catch (const IngestError& error) {
    out.error = error;
  }
  return out;
}

void expect_same_report(const IngestReport& want, const IngestReport& got,
                        const std::string& where) {
  EXPECT_EQ(got.summary_text(), want.summary_text()) << where;
  EXPECT_EQ(got.diagnostics(), want.diagnostics()) << where;
  EXPECT_EQ(got.total(), want.total()) << where;
  for (std::size_t i = 0; i < ingest::kTriageCodeCount; ++i) {
    EXPECT_EQ(got.count(static_cast<TriageCode>(i)), want.count(static_cast<TriageCode>(i)))
        << where << ' ' << ingest::code_name(static_cast<TriageCode>(i));
  }
  for (std::size_t i = 0; i < ingest::kSalvageActionCount; ++i) {
    EXPECT_EQ(got.count(static_cast<SalvageAction>(i)),
              want.count(static_cast<SalvageAction>(i)))
        << where;
  }
  EXPECT_EQ(got.duplicates_removed, want.duplicates_removed) << where;
  EXPECT_EQ(got.events_resorted, want.events_resorted) << where;
  EXPECT_EQ(got.lines_quarantined, want.lines_quarantined) << where;
}

template <typename Product>
void expect_same_error(const Outcome<Product>& want, const Outcome<Product>& got,
                       const std::string& where) {
  ASSERT_EQ(got.error.has_value(), want.error.has_value()) << where;
  if (!want.error) return;
  EXPECT_EQ(got.error->file(), want.error->file()) << where;
  EXPECT_EQ(got.error->line(), want.error->line()) << where;
  EXPECT_EQ(got.error->code(), want.error->code()) << where;
  EXPECT_STREQ(got.error->what(), want.error->what()) << where;
}

void expect_same_events(const std::vector<parse::ParsedEvent>& want,
                        const std::vector<parse::ParsedEvent>& got, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].time, want[i].time) << where << " event " << i;
    ASSERT_EQ(got[i].node, want[i].node) << where << " event " << i;
    ASSERT_EQ(got[i].kind, want[i].kind) << where << " event " << i;
    ASSERT_EQ(got[i].structure, want[i].structure) << where << " event " << i;
  }
}

/// Chunk counts every comparison forces; 0 is the load's own count, and
/// SIZE_MAX cuts one chunk per line.
constexpr std::size_t kPerLine = static_cast<std::size_t>(-1);
constexpr std::size_t kCounts[] = {1, 2, 3, 7, 0, kPerLine};

std::string label(std::string_view name, IngestPolicy policy, std::size_t chunks) {
  return std::string{name} + " [" + std::string{ingest::policy_name(policy)} + ", " +
         (chunks == kPerLine ? std::string{"per-line"} : std::to_string(chunks)) + " chunks]";
}

void expect_console_matches_oracle(std::string_view text, std::string_view name) {
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    const auto want = capture<ingest::ConsoleIngest>(policy, [&](IngestReport& report) {
      return oracle::console(text, "console.log", policy, report);
    });
    for (const auto chunks : kCounts) {
      const auto where = label(name, policy, chunks);
      const auto got = capture<ingest::ConsoleIngest>(policy, [&](IngestReport& report) {
        return ingest::ingest_console_text(text, "console.log", policy, report, chunks);
      });
      expect_same_error(want, got, where);
      expect_same_report(want.report, got.report, where);
      if (!want.product || !got.product) continue;
      EXPECT_EQ(got.product->lines, want.product->lines) << where;
      EXPECT_EQ(got.product->malformed, want.product->malformed) << where;
      EXPECT_EQ(got.product->unrelated, want.product->unrelated) << where;
      expect_same_events(want.product->events, got.product->events, where);
    }
  }
}

void expect_jobs_match_oracle(std::string_view text, std::string_view name) {
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    IngestReport want_report{policy};
    const auto want = oracle::jobs(text, "jobs.log", want_report);
    for (const auto chunks : kCounts) {
      const auto where = label(name, policy, chunks);
      IngestReport report{policy};
      const auto got = ingest::ingest_job_text(text, "jobs.log", policy, report, chunks);
      expect_same_report(want_report, report, where);
      EXPECT_EQ(got.lines, want.lines) << where;
      EXPECT_EQ(got.malformed, want.malformed) << where;
      ASSERT_EQ(got.records.size(), want.records.size()) << where;
      for (std::size_t i = 0; i < want.records.size(); ++i) {
        ASSERT_EQ(logsim::job_log_line(got.records[i]), logsim::job_log_line(want.records[i]))
            << where << " record " << i;
      }
    }
  }
}

/// Cut `text` before each listed 0-based line index, parse the chunks and
/// merge them: the seams land exactly where a case puts them.
Outcome<ingest::ConsoleIngest> console_cut_at(std::string_view text, IngestPolicy policy,
                                              const std::vector<std::size_t>& cuts) {
  std::vector<std::size_t> starts{0};
  for (std::size_t pos = 0, line = 0; pos < text.size(); ++line) {
    const auto end = text.find('\n', pos);
    pos = end == std::string_view::npos ? text.size() : end + 1;
    if (std::find(cuts.begin(), cuts.end(), line + 1) != cuts.end() && pos < text.size()) {
      starts.push_back(pos);
    }
  }
  std::vector<ingest::ConsoleChunk> parts;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const ingest::TextChunk chunk{starts[i], i + 1 < starts.size() ? starts[i + 1] : text.size()};
    parts.push_back(ingest::ingest_console_chunk(text, chunk, "console.log", policy));
  }
  return capture<ingest::ConsoleIngest>(policy, [&](IngestReport& report) {
    return ingest::merge_console_chunks(text, "console.log", policy, parts, report);
  });
}

void expect_cut_matches_oracle(std::string_view text, const std::vector<std::size_t>& cuts,
                               std::string_view name) {
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    const auto want = capture<ingest::ConsoleIngest>(policy, [&](IngestReport& report) {
      return oracle::console(text, "console.log", policy, report);
    });
    const auto got = console_cut_at(text, policy, cuts);
    const auto where = std::string{name} + " [" + std::string{ingest::policy_name(policy)} +
                       ", explicit seams]";
    expect_same_error(want, got, where);
    expect_same_report(want.report, got.report, where);
    if (!want.product || !got.product) continue;
    EXPECT_EQ(got.product->lines, want.product->lines) << where;
    EXPECT_EQ(got.product->malformed, want.product->malformed) << where;
    EXPECT_EQ(got.product->unrelated, want.product->unrelated) << where;
    expect_same_events(want.product->events, got.product->events, where);
  }
  expect_console_matches_oracle(text, name);
}

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSeed = 29;

fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir = fs::temp_directory_path() /
               ("titanrel_chunked_test_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }();
  return root;
}

const struct ScratchCleaner {
  ScratchCleaner() : path(scratch_root()) {}
  ~ScratchCleaner() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
} scratch_cleaner;

const fs::path& clean_dataset() {
  static const fs::path dir = [] {
    const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
    const auto path = scratch_root() / "clean";
    study::write_dataset(context, path);
    return path;
  }();
  return dir;
}

fs::path corrupted(const std::vector<CorruptionOp>& ops, std::uint64_t seed,
                   const std::string& tag) {
  const auto dst = scratch_root() / tag;
  ingest::CorruptionSpec spec;
  spec.ops = ops;
  spec.seed = seed;
  ingest::corrupt_dataset(clean_dataset(), dst, spec);
  return dst;
}

std::vector<CorruptionOp> text_ops() {
  std::vector<CorruptionOp> ops;
  for (const auto op : ingest::all_corruption_ops()) {
    if (!ingest::op_targets_tdf(op)) ops.push_back(op);
  }
  return ops;
}

constexpr std::string_view kEventA = "[2014-06-02 04:05:06] c0-0c0s0n1 GPU DBE: Double Bit Error";
constexpr std::string_view kEventB =
    "[2014-06-02 04:05:09] c0-0c0s1n2 GPU XID13: Graphics Engine Exception";
constexpr std::string_view kEventC =
    "[2014-06-02 04:05:12] c0-0c0s2n3 GPU XID13: Graphics Engine Exception";
constexpr std::string_view kChatter = "[2014-06-02 04:05:07] c0-0c0s0n1 lustre: ping ok";
constexpr std::string_view kMalformed = "[2014-06-02 04:05:08] c0-0c0s0n1 GPU ZZZ: unknown";

std::string lines(std::initializer_list<std::string_view> items) {
  std::string out;
  for (const auto item : items) {
    out += item;
    out += '\n';
  }
  return out;
}

std::string with_nul(std::string_view line) {
  std::string out{line};
  out[10] = '\0';
  return out;
}

std::string overlong() {
  std::string out = "[2014-06-02 04:05:06] c0-0c0s0n1 GPU DBE: ";
  out.append(parse::kMaxConsoleLineLength + 1, 'x');
  return out;
}

// ---------------------------------------------------------------------------
// The split itself.
// ---------------------------------------------------------------------------

TEST(IngestChunked, SplitCoversTheTextAtLineStarts) {
  const auto text = lines({kEventA, kChatter, kEventB, "", kEventC}) + "tail";
  for (const std::size_t pieces : {0UL, 1UL, 2UL, 3UL, 7UL, 1000UL}) {
    const auto chunks = ingest::split_lines(text, pieces);
    ASSERT_FALSE(chunks.empty()) << pieces;
    EXPECT_LE(chunks.size(), std::max<std::size_t>(pieces, 1)) << pieces;
    EXPECT_EQ(chunks.front().begin, 0U) << pieces;
    EXPECT_EQ(chunks.back().end, text.size()) << pieces;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_LT(chunks[i].begin, chunks[i].end) << pieces;
      if (i > 0) {
        EXPECT_EQ(chunks[i].begin, chunks[i - 1].end) << pieces;
        EXPECT_EQ(text[chunks[i].begin - 1], '\n') << pieces;
      }
    }
  }
  // One chunk per line when asked for more pieces than there are lines.
  EXPECT_EQ(ingest::split_lines(text, text.size()).size(), 6U);
  EXPECT_TRUE(ingest::split_lines("", 4).empty());
}

TEST(IngestChunked, ReportAppendOffsetsLinesAndKeepsTheBudget) {
  IngestReport whole{IngestPolicy::kSalvage};
  IngestReport first{IngestPolicy::kSalvage};
  IngestReport second{IngestPolicy::kSalvage};
  for (std::size_t i = 0; i < 40; ++i) {
    whole.add("console.log", i + 1, TriageCode::kConsoleMalformed, SalvageAction::kRejected,
              "x");
    first.add("console.log", i + 1, TriageCode::kConsoleMalformed, SalvageAction::kRejected,
              "x");
  }
  for (std::size_t i = 0; i < 40; ++i) {
    whole.add("console.log", 40 + i + 1, TriageCode::kLineCrlf, SalvageAction::kRepaired, {});
    second.add("console.log", i + 1, TriageCode::kLineCrlf, SalvageAction::kRepaired, {});
  }
  whole.add("smi_sweep.txt", 0, TriageCode::kSmiMalformed, SalvageAction::kQuarantined, "1");
  IngestReport smi{IngestPolicy::kSalvage};
  smi.add("smi_sweep.txt", 0, TriageCode::kSmiMalformed, SalvageAction::kQuarantined, "1");
  whole.duplicates_removed = 3;
  second.duplicates_removed = 3;

  IngestReport merged{IngestPolicy::kSalvage};
  merged.append(first, 0);
  merged.append(second, 40);
  merged.append(smi, 80);
  expect_same_report(whole, merged, "append");
}

// ---------------------------------------------------------------------------
// Chunked == serial on real datasets.
// ---------------------------------------------------------------------------

TEST(IngestChunked, CleanDatasetMatchesSerialOracle) {
  const auto console = study::read_all(clean_dataset() / "console.log");
  const auto jobs = study::read_all(clean_dataset() / "jobs.log");
  ASSERT_FALSE(console.empty());
  expect_console_matches_oracle(console, "clean console.log");
  expect_jobs_match_oracle(jobs, "clean jobs.log");
}

class ChunkedOperator : public ::testing::TestWithParam<CorruptionOp> {};

TEST_P(ChunkedOperator, MatchesSerialOracle) {
  const auto op = GetParam();
  const auto dir = corrupted({op}, kSeed, std::string{"op_"} + std::string{ingest::op_name(op)});
  const auto name = std::string{ingest::op_name(op)};
  expect_console_matches_oracle(study::read_all(dir / "console.log"), name + " console.log");
  expect_jobs_match_oracle(study::read_all(dir / "jobs.log"), name + " jobs.log");
}

INSTANTIATE_TEST_SUITE_P(TextOperators, ChunkedOperator, ::testing::ValuesIn(text_ops()),
                         [](const auto& param_info) {
                           std::string name{ingest::op_name(param_info.param)};
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(IngestChunked, StackedOperatorsMatchSerialOracle) {
  const auto ops = text_ops();
  for (const std::uint64_t seed : {1ULL, 7ULL, 29ULL}) {
    const auto dir = corrupted(ops, seed, "stacked_" + std::to_string(seed));
    const auto name = "stacked seed " + std::to_string(seed);
    expect_console_matches_oracle(study::read_all(dir / "console.log"), name + " console.log");
    expect_jobs_match_oracle(study::read_all(dir / "jobs.log"), name + " jobs.log");
  }
}

// ---------------------------------------------------------------------------
// Hand-built seams.
// ---------------------------------------------------------------------------

TEST(IngestChunkedSeam, OnADuplicatePair) {
  expect_cut_matches_oracle(lines({kEventA, kEventA, kEventB}), {1}, "duplicate pair");
  // A CRLF copy is a different raw line: not a duplicate.
  expect_cut_matches_oracle(std::string{kEventA} + "\r\n" + std::string{kEventA} + "\n", {1},
                            "CRLF and LF copies");
  expect_cut_matches_oracle(std::string{kEventA} + "\r\n" + std::string{kEventA} + "\r\n", {1},
                            "CRLF duplicate pair");
  // A run of copies split at every line.
  expect_cut_matches_oracle(lines({kEventA, kEventA, kEventA, kEventA}), {1, 2, 3},
                            "duplicate run");
}

TEST(IngestChunkedSeam, OnARegression) {
  expect_cut_matches_oracle(lines({kEventB, kEventA}), {1}, "regression");
  expect_cut_matches_oracle(lines({kEventC, kEventA, kEventB}), {1, 2}, "two regressions");
  // Equal timestamps are not a regression, and keep their order.
  expect_cut_matches_oracle(lines({kEventB, kEventB, kEventA, kEventA}), {2}, "ties");
}

TEST(IngestChunkedSeam, NextToNulAndOverlongLines) {
  const auto nul = with_nul(kEventA);
  const auto longline = overlong();
  // The quarantined line ends the duplicate run but not the regression
  // check: the last event before it still counts.
  expect_cut_matches_oracle(lines({kEventA, nul, kEventA}), {1, 2}, "NUL between copies");
  expect_cut_matches_oracle(lines({kEventB, nul, kEventA}), {2}, "NUL before a regression");
  expect_cut_matches_oracle(lines({kEventA, longline, kEventA}), {1, 2}, "overlong between");
  expect_cut_matches_oracle(lines({kEventC, longline, kEventB}), {2}, "overlong, regression");
}

TEST(IngestChunkedSeam, NextToMalformedAndCrlfLines) {
  expect_cut_matches_oracle(lines({kEventA, kMalformed, kEventA}), {1, 2}, "malformed between");
  expect_cut_matches_oracle(
      std::string{kEventB} + "\r\n" + std::string{kMalformed} + "\r\n" + std::string{kEventA} +
          "\r\n",
      {1, 2}, "CRLF lines");
  expect_cut_matches_oracle(lines({kEventA, "", kEventA, ""}), {1, 2, 3}, "blank lines");
}

TEST(IngestChunkedSeam, AtAnUnterminatedTail) {
  expect_cut_matches_oracle(lines({kEventA, kEventB}) + std::string{kEventC}, {2},
                            "unterminated event");
  expect_cut_matches_oracle(lines({kEventA, kEventB}) + std::string{kEventA}, {2},
                            "unterminated regression");
  expect_cut_matches_oracle(std::string{kEventA}, {}, "one unterminated line");
}

TEST(IngestChunkedSeam, InsideANonEventRunLongerThanAChunk) {
  std::string text = lines({kEventC});
  for (int i = 0; i < 50; ++i) text += lines({kChatter, kMalformed});
  text += lines({kEventA, kEventB});
  expect_cut_matches_oracle(text, {1, 20, 40, 60, 80, 100, 101}, "long non-event run");
}

TEST(IngestChunkedSeam, FirstFatalLineWinsAcrossChunks) {
  const auto nul = with_nul(kEventB);
  const auto text = lines({kEventA, kEventB, kEventA, nul, kEventC, nul});
  // Strict: the regression at line 3 comes first in file order, even
  // though a later chunk also stops.
  expect_cut_matches_oracle(text, {3, 5}, "regression before NUL");
  expect_cut_matches_oracle(lines({kEventA, nul, kEventC, kEventB}), {1, 3},
                            "NUL before regression");
}

TEST(IngestChunkedSeam, FindingsPastTheDetailBudget) {
  std::string text;
  for (int i = 0; i < 100; ++i) text += lines({kEventA, kMalformed});
  expect_cut_matches_oracle(text, {7, 60, 61, 150}, "budget");
}

TEST(IngestChunkedJobs, MalformedCrlfAndUnterminatedLines) {
  const std::string text = "7|3|100|200|4|12.5|1.5|6.0\r\nnot an accounting line\n\n"
                           "8|3|150|250|2|1.5|0.5|2.0\n9|4|1|2|1|0.1|0.1|0.1";
  expect_jobs_match_oracle(text, "hand-built jobs.log");
  expect_jobs_match_oracle("", "empty jobs.log");
}

// ---------------------------------------------------------------------------
// The load: manifest verdicts surface before any parse finding, at any
// pool width.
// ---------------------------------------------------------------------------

class ThreadsGuard {
 public:
  explicit ThreadsGuard(std::size_t threads) : saved_{par::thread_count()} {
    par::set_threads(threads);
  }
  ~ThreadsGuard() { par::set_threads(saved_); }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;

 private:
  std::size_t saved_;
};

/// Rewrite the manifest's claim for `name` to match its current bytes.
void reclaim(const fs::path& dir, const std::string& name) {
  auto manifest = study::read_lines(dir / "manifest.txt");
  for (auto& line : manifest) {
    if (line.starts_with("checksum " + name + ' ')) {
      line = "checksum " + name + ' ' +
             ingest::checksum_hex(ingest::text_claim(study::read_all(dir / name)));
    }
  }
  study::write_text(dir / "manifest.txt", study::join_lines(manifest));
}

TEST(IngestChunkedLoad, TamperedConsoleWithNulLineFailsItsChecksumFirst) {
  const auto dir = corrupted({CorruptionOp::kInjectNul}, kSeed, "tampered_nul");
  for (const std::size_t threads : {1UL, 4UL}) {
    const ThreadsGuard guard{threads};
    try {
      (void)study::DatasetSource{dir}.load();
      FAIL() << "a tampered console.log must fail strict";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.code(), TriageCode::kChecksumMismatch) << threads;
      EXPECT_EQ(error.file(), "console.log") << threads;
    }
    const auto context = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
    ASSERT_TRUE(context.ingest_report.has_value());
    const auto& diags = context.ingest_report->diagnostics();
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags.front().code, TriageCode::kChecksumMismatch) << threads;
    EXPECT_EQ(diags.front().file, "console.log") << threads;
    EXPECT_GT(context.ingest_report->count(TriageCode::kLineNul), 0U) << threads;
  }
}

TEST(IngestChunkedLoad, MismatchInALaterClaimBeatsAConsoleParseError) {
  // console.log holds NUL lines but its claim is re-stamped to match, so
  // only the parse would fail it; jobs.log is tampered behind its claim.
  const auto dir = corrupted({CorruptionOp::kInjectNul}, kSeed, "jobs_mismatch");
  reclaim(dir, "console.log");
  study::write_text(dir / "jobs.log", study::read_all(dir / "jobs.log") + "tampered\n");
  try {
    (void)study::DatasetSource{dir}.load();
    FAIL() << "strict load must fail";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kChecksumMismatch);
    EXPECT_EQ(error.file(), "jobs.log");
  }
  // With the jobs claim honest again the console parse error surfaces.
  reclaim(dir, "jobs.log");
  try {
    (void)study::DatasetSource{dir}.load();
    FAIL() << "strict load must fail";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kLineNul);
    EXPECT_EQ(error.file(), "console.log");
  }
}

TEST(IngestChunkedLoad, MissingClaimKeepsItsClaimOrderPosition) {
  const auto dir = corrupted({CorruptionOp::kFlipChars}, 3, "missing_order");
  fs::remove(dir / "smi_sweep.txt");
  study::write_text(dir / "jobs.log", study::read_all(dir / "jobs.log") + "tampered\n");
  // Claim order is console.log, jobs.log, smi_sweep.txt.
  try {
    (void)study::DatasetSource{dir}.load();
    FAIL() << "strict load must fail";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kChecksumMismatch);
    EXPECT_EQ(error.file(), "console.log");
  }
  const auto context = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
  const auto& diags = context.ingest_report->diagnostics();
  ASSERT_GE(diags.size(), 3U);
  EXPECT_EQ(diags[0].file, "console.log");
  EXPECT_EQ(diags[0].code, TriageCode::kChecksumMismatch);
  EXPECT_EQ(diags[1].file, "jobs.log");
  EXPECT_EQ(diags[1].code, TriageCode::kChecksumMismatch);
  EXPECT_EQ(diags[2].file, "smi_sweep.txt");
  EXPECT_EQ(diags[2].code, TriageCode::kFileMissing);

  reclaim(dir, "console.log");
  try {
    (void)study::DatasetSource{dir}.load();
    FAIL() << "strict load must fail";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kChecksumMismatch);
    EXPECT_EQ(error.file(), "jobs.log");
  }
  reclaim(dir, "jobs.log");
  try {
    (void)study::DatasetSource{dir}.load();
    FAIL() << "strict load must fail";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kFileMissing);
    EXPECT_EQ(error.file(), "smi_sweep.txt");
  }
}

TEST(IngestChunkedLoad, SalvageSummaryIsWidthInvariantOnEveryOperator) {
  auto ops = text_ops();
  std::vector<std::vector<CorruptionOp>> cases;
  for (const auto op : ops) cases.push_back({op});
  cases.push_back(ops);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto dir = corrupted(cases[c], kSeed, "width_" + std::to_string(c));
    std::string summary1;
    {
      const ThreadsGuard guard{1};
      summary1 =
          study::DatasetSource{dir, IngestPolicy::kSalvage}.load().ingest_report->summary_text();
    }
    const ThreadsGuard guard{4};
    const auto context = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
    EXPECT_EQ(context.ingest_report->summary_text(), summary1) << "case " << c;
  }
}

// ---------------------------------------------------------------------------
// The v2 text claim: fixed 1 MiB chunks, each digested in 8 FNV-1a byte
// lanes, folded in chunk order -- against a naive strided reference, at
// every pool width.
// ---------------------------------------------------------------------------

/// `value` as 8 little-endian bytes.
std::string le_bytes(std::uint64_t value) {
  std::string out;
  for (int i = 0; i < 8; ++i) out += static_cast<char>((value >> (8 * i)) & 0xffU);
  return out;
}

/// The naive reference: each 1 MiB chunk split into its 8 strided strings,
/// each hashed with stats::hash_label, and the lane values hashed as 8
/// little-endian bytes each; then the length and the chunk digests hashed
/// the same way.
std::uint64_t reference_claim(std::string_view text) {
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::string folded = le_bytes(text.size());
  for (std::size_t begin = 0; begin < text.size(); begin += kChunk) {
    const auto chunk = text.substr(begin, kChunk);
    std::string lanes;
    for (std::size_t lane = 0; lane < 8; ++lane) {
      std::string strided;
      for (std::size_t i = lane; i < chunk.size(); i += 8) strided += chunk[i];
      lanes += le_bytes(stats::hash_label(strided));
    }
    folded += le_bytes(stats::hash_label(lanes));
  }
  return stats::hash_label(folded);
}

TEST(IngestClaim, ChunkedClaimMatchesTheStridedReference) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  EXPECT_EQ(ingest::kClaimChunkBytes, kMiB);
  EXPECT_EQ(ingest::kClaimLanes, 8U);
  std::string bytes(3 * kMiB + 5, '\0');
  stats::Rng rng{kSeed};
  for (auto& byte : bytes) byte = static_cast<char>(rng.below(256));
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
        kMiB - 1, kMiB, kMiB + 1, 3 * kMiB + 5}) {
    const std::string_view text{bytes.data(), size};
    const auto expected = reference_claim(text);
    std::vector<std::uint64_t> digests;
    for (std::size_t c = 0; c < ingest::claim_chunk_count(size); ++c) {
      digests.push_back(ingest::claim_chunk_digest(text, c));
    }
    EXPECT_EQ(ingest::fold_text_claim(size, digests), expected) << size;
    for (const std::size_t threads : {1UL, 4UL}) {
      const ThreadsGuard guard{threads};
      EXPECT_EQ(ingest::text_claim(text), expected) << size << " at width " << threads;
    }
  }
}

TEST(IngestClaim, FlipInTheLastPartialChunkFailsTheClaim) {
  const auto dir = scratch_root() / "last_chunk_flip";
  fs::copy(clean_dataset(), dir);
  auto text = study::read_all(dir / "console.log");
  const std::size_t partial = text.size() % ingest::kClaimChunkBytes;
  ASSERT_NE(partial, 0U);
  const std::size_t pos = text.size() - partial / 2;
  text[pos] = static_cast<char>(text[pos] ^ 0x01);
  study::write_text(dir / "console.log", text);
  for (const std::size_t threads : {1UL, 4UL}) {
    const ThreadsGuard guard{threads};
    try {
      (void)study::DatasetSource{dir}.load();
      FAIL() << "a flipped byte must fail its claim";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.code(), TriageCode::kChecksumMismatch) << threads;
      EXPECT_EQ(error.file(), "console.log") << threads;
    }
  }
}

}  // namespace
}  // namespace titan
