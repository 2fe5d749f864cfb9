// Differential robustness harness for the ingest layer: every corruption
// operator, alone and stacked, must yield either a successful salvage
// load (with a non-empty triage report) or a strict-mode IngestError
// naming file/line/code -- never a crash -- and salvage reports must be
// byte-identical at any titan::par width.  Plus unit fixtures for the
// triage primitives themselves.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/facility.hpp"
#include "ingest/corrupt.hpp"
#include "ingest/triage.hpp"
#include "par/pool.hpp"
#include "study/io.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"
#include "tdf/format.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using ingest::CorruptionOp;
using ingest::IngestError;
using ingest::IngestPolicy;
using ingest::IngestReport;
using ingest::SalvageAction;
using ingest::TriageCode;

constexpr std::uint64_t kSeed = 29;

/// RAII pool-width override (restores the previous width on scope exit).
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

/// Scratch root for this test binary, wiped per process.  The PID is baked
/// into the path: ctest runs every discovered test as its own process, and
/// under `-j N` concurrent processes would otherwise wipe each other's
/// scratch mid-test.
fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir = fs::temp_directory_path() /
               ("titanrel_ingest_test_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }();
  return root;
}

/// Remove this process's scratch root on exit so parallel ctest runs do not
/// leave one directory per test behind in the temp dir.  The path is copied
/// at construction: calling scratch_root() from a static destructor would
/// race the function-local static's own teardown.
const struct ScratchCleaner {
  ScratchCleaner() : path(scratch_root()) {}
  ~ScratchCleaner() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
} scratch_cleaner;

/// The clean dataset, written once from the simulator.
const fs::path& clean_dataset() {
  static const fs::path dir = [] {
    const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
    const auto path = scratch_root() / "clean";
    study::write_dataset(context, path);
    return path;
  }();
  return dir;
}

/// The same campaign written as a TDF binary dataset.
const fs::path& clean_binary_dataset() {
  static const fs::path dir = [] {
    const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
    const auto path = scratch_root() / "clean_binary";
    study::write_dataset(context, path, study::DatasetFormat::kBinary);
    return path;
  }();
  return dir;
}

/// Corrupt `src` with `ops` into a fresh directory.
fs::path corrupted_from(const fs::path& src, const std::vector<CorruptionOp>& ops,
                        std::uint64_t seed, std::string_view tag) {
  const auto dst = scratch_root() / std::string{tag};
  ingest::CorruptionSpec spec;
  spec.ops = ops;
  spec.seed = seed;
  ingest::corrupt_dataset(src, dst, spec);
  return dst;
}

/// Corrupt the clean text dataset with `ops` into a fresh directory.
fs::path corrupted(const std::vector<CorruptionOp>& ops, std::uint64_t seed,
                   std::string_view tag) {
  return corrupted_from(clean_dataset(), ops, seed, tag);
}

std::string slurp(const fs::path& path) { return study::read_all(path); }

// ---------------------------------------------------------------------------
// Clean-input guarantees.
// ---------------------------------------------------------------------------

TEST(IngestClean, StrictLoadCarriesNoIngestReport) {
  const auto context = study::DatasetSource{clean_dataset()}.load();
  EXPECT_FALSE(context.ingest_report.has_value());
  const auto report = study::AnalysisRegistry::standard().run_all(context);
  EXPECT_FALSE(report.ingest.has_value());
  EXPECT_EQ(report.text().find("-- ingest"), std::string::npos);
  EXPECT_EQ(report.json().find("\"ingest\""), std::string::npos);
}

TEST(IngestClean, SalvageLoadOfCleanDataMatchesStrict) {
  const auto strict = study::DatasetSource{clean_dataset()}.load();
  const auto salvage =
      study::DatasetSource{clean_dataset(), IngestPolicy::kSalvage}.load();
  ASSERT_TRUE(salvage.ingest_report.has_value());
  // The simulator may legitimately emit byte-identical adjacent lines;
  // only when it did not are the streams required to agree exactly.
  if (salvage.ingest_report->duplicates_removed == 0) {
    EXPECT_EQ(strict.frame, salvage.frame);
  }
  EXPECT_EQ(strict.period.begin, salvage.period.begin);
  EXPECT_EQ(strict.period.end, salvage.period.end);
  EXPECT_EQ(strict.capabilities, salvage.capabilities);
}

TEST(IngestClean, ManifestCarriesVerifiableChecksums) {
  const auto manifest = slurp(clean_dataset() / "manifest.txt");
  IngestReport report{IngestPolicy::kStrict};
  const auto parsed =
      ingest::ingest_manifest_text(manifest, "manifest.txt", IngestPolicy::kStrict, report);
  ASSERT_EQ(parsed.checksums.size(), 3U);
  EXPECT_EQ(parsed.version, 2U);
  for (const auto& [name, expected] : parsed.checksums) {
    EXPECT_EQ(ingest::text_claim(slurp(clean_dataset() / name)), expected) << name;
  }
}

// ---------------------------------------------------------------------------
// The differential sweep: every operator alone, then stacked.
// ---------------------------------------------------------------------------

TEST(IngestCorruption, EveryOperatorSalvagesWithNonEmptyReport) {
  for (const auto op : ingest::all_corruption_ops()) {
    // TDF operators are exercised against the binary dataset below; on a
    // text dataset they have nothing to mutate.
    if (ingest::op_targets_tdf(op)) continue;
    const auto dir = corrupted({op}, kSeed, std::string{"solo_"} + std::string{op_name(op)});
    const study::DatasetSource source{dir, IngestPolicy::kSalvage};
    study::StudyContext context;
    ASSERT_NO_THROW(context = source.load()) << op_name(op);
    ASSERT_TRUE(context.ingest_report.has_value()) << op_name(op);
    EXPECT_GT(context.ingest_report->total(), 0U)
        << op_name(op) << ": salvage of a corrupted dataset must record findings";
    EXPECT_FALSE(context.frame.empty()) << op_name(op);
    // The report section renders and the registry still runs.
    const auto report =
        study::AnalysisRegistry::standard().run(context, std::vector<std::string>{"frequency"});
    ASSERT_TRUE(report.ingest.has_value()) << op_name(op);
    EXPECT_NE(report.text().find("-- ingest"), std::string::npos) << op_name(op);
  }
}

TEST(IngestCorruption, EveryOperatorTripsStrictModeWithNamedLocation) {
  // The manifest checksums make any byte-level mutation an integrity
  // failure, so strict mode must reject every operator's output.
  for (const auto op : ingest::all_corruption_ops()) {
    if (ingest::op_targets_tdf(op)) continue;
    const auto dir =
        corrupted({op}, kSeed, std::string{"strict_"} + std::string{op_name(op)});
    try {
      (void)study::DatasetSource{dir}.load();
      FAIL() << op_name(op) << ": strict load of a corrupted dataset succeeded";
    } catch (const IngestError& error) {
      EXPECT_FALSE(error.file().empty()) << op_name(op);
      const std::string what = error.what();
      EXPECT_NE(what.find(ingest::code_name(error.code())), std::string::npos)
          << op_name(op) << ": message must carry the taxonomy code";
      EXPECT_NE(what.find(error.file()), std::string::npos)
          << op_name(op) << ": message must name the offending file";
    }
  }
}

TEST(IngestCorruption, StackedOperatorsSalvageAcrossSeeds) {
  const auto all = ingest::all_corruption_ops();
  const std::vector<CorruptionOp> ops{all.begin(), all.end()};
  for (const std::uint64_t seed : {1ULL, 7ULL, 29ULL}) {
    const auto dir = corrupted(ops, seed, "stacked_" + std::to_string(seed));
    const study::DatasetSource source{dir, IngestPolicy::kSalvage};
    study::StudyContext context;
    ASSERT_NO_THROW(context = source.load()) << "seed " << seed;
    ASSERT_TRUE(context.ingest_report.has_value());
    EXPECT_GT(context.ingest_report->total(), 0U);
    EXPECT_FALSE(context.frame.empty());
  }
}

TEST(IngestCorruption, SalvageReportBytesStableAcrossThreadWidths) {
  const auto all = ingest::all_corruption_ops();
  const auto dir = corrupted({all.begin(), all.end()}, kSeed, "width");
  const auto context = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
  const auto& registry = study::AnalysisRegistry::standard();

  std::string text1;
  std::string json1;
  {
    const ThreadsGuard guard{1};
    const auto report = registry.run_all(context);
    text1 = report.text();
    json1 = report.json();
  }
  const ThreadsGuard guard{4};
  const auto report = registry.run_all(context);
  EXPECT_EQ(report.text(), text1);
  EXPECT_EQ(report.json(), json1);
  EXPECT_NE(text1.find("-- ingest"), std::string::npos);
}

TEST(IngestCorruption, CorruptorIsDeterministic) {
  const auto all = ingest::all_corruption_ops();
  const std::vector<CorruptionOp> ops{all.begin(), all.end()};
  const auto a = corrupted(ops, 99, "det_a");
  const auto b = corrupted(ops, 99, "det_b");
  for (const auto name : {"console.log", "manifest.txt"}) {
    EXPECT_EQ(slurp(a / name), slurp(b / name)) << name;
  }
  const auto c = corrupted(ops, 100, "det_c");
  EXPECT_NE(slurp(a / "console.log"), slurp(c / "console.log"));
}

// ---------------------------------------------------------------------------
// Binary (TDF) dataset corruption: every operator yields a named outcome.
// ---------------------------------------------------------------------------

std::vector<CorruptionOp> tdf_ops() {
  std::vector<CorruptionOp> ops;
  for (const auto op : ingest::all_corruption_ops()) {
    if (ingest::op_targets_tdf(op)) ops.push_back(op);
  }
  return ops;
}

bool is_tdf_code(TriageCode code) {
  return std::string_view{ingest::code_name(code)}.substr(0, 6) == "E_TDF_";
}

TEST(TdfCorruption, EveryTdfOperatorTripsStrictWithNamedTdfCode) {
  for (const auto op : tdf_ops()) {
    const auto dir = corrupted_from(clean_binary_dataset(), {op}, kSeed,
                                    std::string{"tdf_strict_"} + std::string{op_name(op)});
    try {
      (void)study::DatasetSource{dir}.load();
      FAIL() << op_name(op) << ": strict load of a damaged TDF container succeeded";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.file(), "dataset.tdf") << op_name(op);
      EXPECT_TRUE(is_tdf_code(error.code()))
          << op_name(op) << ": got " << ingest::code_name(error.code());
      const std::string what = error.what();
      EXPECT_NE(what.find(ingest::code_name(error.code())), std::string::npos)
          << op_name(op) << ": message must carry the taxonomy code";
    }
  }
}

TEST(TdfCorruption, EveryTdfOperatorNamedUnderSalvage) {
  // Container and required-segment damage stays fatal in salvage mode;
  // optional-segment damage is quarantined with a named code.  Either
  // way the damage must never pass silently.
  for (const auto op : tdf_ops()) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 29ULL}) {
      const auto dir = corrupted_from(
          clean_binary_dataset(), {op}, seed,
          std::string{"tdf_salvage_"} + std::string{op_name(op)} + "_" + std::to_string(seed));
      try {
        const auto context = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
        ASSERT_TRUE(context.ingest_report.has_value()) << op_name(op) << " seed " << seed;
        bool named = false;
        for (const auto& diag : context.ingest_report->diagnostics()) {
          if (is_tdf_code(diag.code)) named = true;
        }
        EXPECT_TRUE(named) << op_name(op) << " seed " << seed
                           << ": salvage survived without a named TDF finding";
        EXPECT_FALSE(context.frame.empty()) << op_name(op) << " seed " << seed;
      } catch (const IngestError& error) {
        EXPECT_TRUE(is_tdf_code(error.code()))
            << op_name(op) << " seed " << seed << ": got "
            << ingest::code_name(error.code());
      }
    }
  }
}

TEST(TdfCorruption, CorruptorIsDeterministicOnBinaryDatasets) {
  const auto ops = tdf_ops();
  const auto a = corrupted_from(clean_binary_dataset(), ops, 99, "tdf_det_a");
  const auto b = corrupted_from(clean_binary_dataset(), ops, 99, "tdf_det_b");
  EXPECT_EQ(slurp(a / "dataset.tdf"), slurp(b / "dataset.tdf"));
  EXPECT_EQ(slurp(a / "manifest.txt"), slurp(b / "manifest.txt"));
  const auto c = corrupted_from(clean_binary_dataset(), ops, 100, "tdf_det_c");
  EXPECT_NE(slurp(a / "dataset.tdf"), slurp(c / "dataset.tdf"));
}

TEST(TdfCorruption, TextOperatorsAreNoOpsOnBinaryDatasets) {
  // Manifest operators still bite (the manifest is shared by both
  // formats), so only the console/jobs/smi text operators are expected
  // to leave a binary-only dataset loadable.
  std::vector<CorruptionOp> text_ops;
  for (const auto op : ingest::all_corruption_ops()) {
    if (ingest::op_targets_tdf(op) || op == CorruptionOp::kMangleManifest ||
        op == CorruptionOp::kChecksumMismatch) {
      continue;
    }
    text_ops.push_back(op);
  }
  const auto dir = corrupted_from(clean_binary_dataset(), text_ops, kSeed, "tdf_text_noop");
  EXPECT_EQ(slurp(dir / "dataset.tdf"), slurp(clean_binary_dataset() / "dataset.tdf"));
  const auto context = study::DatasetSource{dir}.load();
  EXPECT_TRUE(context.load_stats.binary);
  EXPECT_FALSE(context.frame.empty());
}

TEST(TdfCorruption, ClaimsFollowTheManifestVersion) {
  // The corruptor computes a claim as the manifest's own version does: a
  // repatched claim holds for the mutated container, and a falsified one
  // fails, under a v1 manifest (whole-file FNV-1a) and a v2 one alike.
  const std::string tdf_name{tdf::kTdfFileName};
  for (const std::uint32_t version : {1U, 2U}) {
    const auto src = scratch_root() / ("claims_src_v" + std::to_string(version));
    fs::copy(clean_binary_dataset(), src, fs::copy_options::recursive);
    if (version == 1) {
      auto manifest = study::read_lines(src / "manifest.txt");
      manifest.front() = std::string{ingest::kDatasetManifestHeaderV1};
      manifest.back() = "checksum " + tdf_name + ' ' +
                        ingest::checksum_hex(ingest::content_checksum(slurp(src / tdf_name)));
      study::write_text(src / "manifest.txt", study::join_lines(manifest));
    }
    const auto claim_of = [&](const fs::path& dir) {
      IngestReport report{IngestPolicy::kStrict};
      const auto manifest = ingest::ingest_manifest_text(slurp(dir / "manifest.txt"),
                                                         "manifest.txt", IngestPolicy::kStrict,
                                                         report);
      EXPECT_EQ(manifest.version, version);
      EXPECT_EQ(manifest.checksums.size(), 1U);
      return manifest.checksums.front().second;
    };
    const auto tag = "_v" + std::to_string(version);
    const auto tampered =
        corrupted_from(src, {CorruptionOp::kTdfChecksumTamper}, kSeed, "claims_tamper" + tag);
    EXPECT_NE(slurp(tampered / tdf_name), slurp(src / tdf_name));
    EXPECT_EQ(claim_of(tampered),
              ingest::artifact_claim(version, tdf_name, slurp(tampered / tdf_name)));
    const auto falsified =
        corrupted_from(src, {CorruptionOp::kChecksumMismatch}, kSeed, "claims_false" + tag);
    EXPECT_NE(claim_of(falsified),
              ingest::artifact_claim(version, tdf_name, slurp(falsified / tdf_name)));
  }
}

// ---------------------------------------------------------------------------
// Triage-primitive fixtures (hand-written pathological inputs).
// ---------------------------------------------------------------------------

constexpr std::string_view kEventA = "[2014-06-02 04:05:06] c0-0c0s0n1 GPU DBE: Double Bit Error";
constexpr std::string_view kEventB = "[2014-06-02 04:05:09] c0-0c0s1n2 GPU XID13: Graphics Engine Exception";

std::string lines(std::initializer_list<std::string_view> items) {
  std::string out;
  for (const auto item : items) {
    out += item;
    out += '\n';
  }
  return out;
}

TEST(IngestConsole, OutOfOrderThrowsStrictAndResortsSalvage) {
  const auto text = lines({kEventB, kEventA});

  IngestReport strict_report{IngestPolicy::kStrict};
  try {
    (void)ingest::ingest_console_text(text, "console.log", IngestPolicy::kStrict,
                                      strict_report);
    FAIL() << "timestamp regression must be fatal in strict mode";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.file(), "console.log");
    EXPECT_EQ(error.line(), 2U);
    EXPECT_EQ(error.code(), TriageCode::kEventOutOfOrder);
  }

  IngestReport report{IngestPolicy::kSalvage};
  const auto out =
      ingest::ingest_console_text(text, "console.log", IngestPolicy::kSalvage, report);
  ASSERT_EQ(out.events.size(), 2U);
  EXPECT_LT(out.events[0].time, out.events[1].time);
  EXPECT_EQ(report.events_resorted, 1U);
  EXPECT_EQ(report.count(TriageCode::kEventOutOfOrder), 1U);
}

TEST(IngestConsole, AdjacentDuplicateRemovedInSalvageKeptInStrict) {
  const auto text = lines({kEventA, kEventA, kEventB});

  IngestReport salvage_report{IngestPolicy::kSalvage};
  const auto salvage =
      ingest::ingest_console_text(text, "console.log", IngestPolicy::kSalvage, salvage_report);
  EXPECT_EQ(salvage.events.size(), 2U);
  EXPECT_EQ(salvage_report.duplicates_removed, 1U);
  EXPECT_EQ(salvage_report.count(TriageCode::kEventDuplicate), 1U);

  IngestReport strict_report{IngestPolicy::kStrict};
  const auto strict =
      ingest::ingest_console_text(text, "console.log", IngestPolicy::kStrict, strict_report);
  EXPECT_EQ(strict.events.size(), 3U);  // duplicates are data, not corruption
}

TEST(IngestConsole, NulAndOverlongLinesQuarantinedInSalvageFatalInStrict) {
  std::string nul_line{kEventA};
  nul_line[10] = '\0';
  std::string long_line = "[2014-06-02 04:05:06] c0-0c0s0n1 GPU DBE: ";
  long_line.append(parse::kMaxConsoleLineLength + 1, 'x');

  for (const auto& [bad, code] :
       {std::pair{nul_line, TriageCode::kLineNul},
        std::pair{long_line, TriageCode::kLineOverlong}}) {
    const auto text = lines({bad, kEventB});

    IngestReport report{IngestPolicy::kSalvage};
    const auto out =
        ingest::ingest_console_text(text, "console.log", IngestPolicy::kSalvage, report);
    EXPECT_EQ(out.events.size(), 1U);
    EXPECT_EQ(report.count(code), 1U);
    EXPECT_EQ(report.lines_quarantined, 1U);

    IngestReport strict_report{IngestPolicy::kStrict};
    EXPECT_THROW((void)ingest::ingest_console_text(text, "console.log",
                                                   IngestPolicy::kStrict, strict_report),
                 IngestError);
  }
}

TEST(IngestConsole, CrlfRepairedUnderBothPolicies) {
  std::string text{kEventA};
  text += "\r\n";
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    IngestReport report{policy};
    const auto out = ingest::ingest_console_text(text, "console.log", policy, report);
    EXPECT_EQ(out.events.size(), 1U);
    EXPECT_EQ(report.count(TriageCode::kLineCrlf), 1U);
    EXPECT_EQ(report.count(SalvageAction::kRepaired), 1U);
  }
}

TEST(IngestConsole, MissingTrailingNewlineNotedNotFatal) {
  const std::string text{kEventA};  // no terminator
  IngestReport report{IngestPolicy::kStrict};
  const auto out =
      ingest::ingest_console_text(text, "console.log", IngestPolicy::kStrict, report);
  EXPECT_EQ(out.events.size(), 1U);
  EXPECT_EQ(report.count(TriageCode::kFileUnterminated), 1U);
}

TEST(IngestJobLog, MalformedLinesRejectedUnderBothPolicies) {
  const auto text =
      lines({"7|3|100|200|4|12.5|1.5|6.0", "not an accounting line at all"});
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    IngestReport report{policy};
    const auto out = ingest::ingest_job_text(text, "jobs.log", policy, report);
    EXPECT_EQ(out.lines, 2U);
    EXPECT_EQ(out.records.size(), 1U);
    EXPECT_EQ(out.malformed, 1U);
    // Job-log damage is never fatal, even under strict.
    EXPECT_EQ(report.count(TriageCode::kJobMalformed), 1U);
    EXPECT_EQ(report.count(SalvageAction::kRejected), 1U);
  }
}

TEST(IngestSmi, MalformedBlocksQuarantinedUnderBothPolicies) {
  const std::string text =
      "==============NVSMI LOG==============\n"
      "Timestamp                           : 2015-02-28 00:00:00\n"
      "Attached GPUs                       : 2\n\n"
      "GPU c1-1c1s1n1\n    Serial Number                   : 7\n"
      "    Temperature\n        GPU Current Temp            : 90.0 F\n"
      "    ECC Errors\n        Volatile\n"
      "            Single Bit Volatile     : 0\n"
      "            Double Bit Volatile     : 0\n"
      "        Aggregate\n"
      "            Single Bit Total        : 1\n"
      "            Double Bit Total        : 0\n"
      "    Retired Pages\n        Single Bit ECC              : 0\n"
      "        Double Bit ECC              : 0\n\n"
      "GPU garbage-here\n   broken block\n";
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    IngestReport report{policy};
    const auto sweep = ingest::ingest_smi_text(text, "smi.log", policy, report);
    EXPECT_EQ(sweep.records.size(), 1U);
    EXPECT_EQ(sweep.malformed_blocks, 1U);
    EXPECT_EQ(report.count(TriageCode::kSmiMalformed), 1U);
    EXPECT_EQ(report.count(SalvageAction::kQuarantined), 1U);
  }
}

TEST(IngestTriage, CodeNamesAreUniqueStableWireIdentifiers) {
  // code_name() strings are serialized into reports and error messages;
  // every code must have a distinct E_* identifier, and the identifiers
  // are wire format -- renaming one is a breaking change.
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < ingest::kTriageCodeCount; ++i) {
    const auto name = ingest::code_name(static_cast<TriageCode>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(name.starts_with("E_")) << name;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate code name " << name;
  }
  EXPECT_EQ(ingest::code_name(TriageCode::kJobMalformed), "E_JOB_MALFORMED");
  EXPECT_EQ(ingest::code_name(TriageCode::kSmiMalformed), "E_SMI_MALFORMED");
  EXPECT_EQ(ingest::code_name(TriageCode::kTdfMmapUnavailable),
            "E_TDF_MMAP_UNAVAILABLE");
}

TEST(IngestManifest, BadHeaderAndFieldAreFatalStrictRecordedSalvage) {
  const auto bad_header = lines({"not-a-manifest", "period_begin 10"});
  const auto bad_field = lines({std::string{ingest::kDatasetManifestHeader},
                                "period_begin twelve"});
  for (const auto& [text, code] :
       {std::pair{bad_header, TriageCode::kManifestHeader},
        std::pair{bad_field, TriageCode::kManifestField}}) {
    IngestReport strict_report{IngestPolicy::kStrict};
    EXPECT_THROW((void)ingest::ingest_manifest_text(text, "manifest.txt",
                                                    IngestPolicy::kStrict, strict_report),
                 IngestError);
    IngestReport report{IngestPolicy::kSalvage};
    (void)ingest::ingest_manifest_text(text, "manifest.txt", IngestPolicy::kSalvage, report);
    EXPECT_EQ(report.count(code), 1U);
  }
}

TEST(IngestManifest, UnknownKeysAreForwardCompatible) {
  const auto text = lines({std::string{ingest::kDatasetManifestHeader}, "period_begin 10",
                           "period_end 20", "some_future_key whatever"});
  IngestReport report{IngestPolicy::kStrict};
  const auto out =
      ingest::ingest_manifest_text(text, "manifest.txt", IngestPolicy::kStrict, report);
  EXPECT_TRUE(out.have_begin);
  EXPECT_TRUE(out.have_end);
  EXPECT_EQ(out.begin, 10);
  EXPECT_EQ(out.end, 20);
  EXPECT_EQ(report.count(TriageCode::kManifestUnknown), 1U);
}

TEST(IngestManifest, ChecksumLinesRoundTrip) {
  const auto text = lines({std::string{ingest::kDatasetManifestHeader},
                           "checksum console.log 00000000deadbeef"});
  IngestReport report{IngestPolicy::kStrict};
  const auto out =
      ingest::ingest_manifest_text(text, "manifest.txt", IngestPolicy::kStrict, report);
  ASSERT_EQ(out.checksums.size(), 1U);
  EXPECT_EQ(out.checksums[0].first, "console.log");
  EXPECT_EQ(out.checksums[0].second, 0xdeadbeefULL);
  EXPECT_EQ(ingest::checksum_hex(0xdeadbeefULL), "00000000deadbeef");
}

TEST(IngestReportBudget, CountersExactDetailsBounded) {
  IngestReport report{IngestPolicy::kSalvage};
  for (std::size_t i = 0; i < 100; ++i) {
    report.add("console.log", i + 1, TriageCode::kConsoleMalformed, SalvageAction::kRejected,
               "x");
  }
  EXPECT_EQ(report.total(), 100U);
  EXPECT_EQ(report.count(TriageCode::kConsoleMalformed), 100U);
  EXPECT_EQ(report.diagnostics().size(), IngestReport::kDetailBudget);
  EXPECT_EQ(report.dropped(), 100U - IngestReport::kDetailBudget);
  EXPECT_NE(report.summary_text().find("beyond the 64-entry budget"), std::string::npos);
}

TEST(StudyIo, ReadLinesStripsCrlfAndSurvivesMissingTerminator) {
  const auto path = scratch_root() / "crlf.txt";
  {
    std::ofstream out{path, std::ios::binary};
    out << "alpha\r\nbeta\r\ngamma";  // CRLF + unterminated tail
  }
  const auto result = study::read_lines(path);
  const std::vector<std::string> expected = {"alpha", "beta", "gamma"};
  EXPECT_EQ(result, expected);
}

TEST(DatasetStrictErrors, MissingConsoleNamesFileUnderBothPolicies) {
  const auto dir = scratch_root() / "empty";
  fs::create_directories(dir);
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    try {
      (void)study::DatasetSource{dir, policy}.load();
      FAIL() << "load of an empty directory must fail";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.file(), "console.log");
      EXPECT_EQ(error.code(), TriageCode::kFileMissing);
    }
  }
}

TEST(DatasetStrictErrors, ChecksumMismatchNamesTamperedFile) {
  const auto dir = corrupted({CorruptionOp::kFlipChars}, 3, "tamper");
  try {
    (void)study::DatasetSource{dir}.load();
    FAIL() << "tampered console.log must fail the manifest checksum";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.file(), "console.log");
    EXPECT_EQ(error.code(), TriageCode::kChecksumMismatch);
  }
}

}  // namespace
}  // namespace titan
