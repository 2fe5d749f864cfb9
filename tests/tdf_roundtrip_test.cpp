// Cross-source equivalence: the same campaign loaded from a text
// dataset, a TDF binary dataset, and the simulator must produce
// byte-identical StudyReports at any titan::par width, and converting
// text -> binary -> text must reproduce the text artifacts exactly.
// Plus the ingest-size-cap fixture for study::io.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/event_frame.hpp"
#include "core/facility.hpp"
#include "ingest/triage.hpp"
#include "par/pool.hpp"
#include "profile/fleet_profile.hpp"
#include "study/fsck.hpp"
#include "study/io.hpp"
#include "study/registry.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using ingest::IngestError;
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

/// Per-process scratch root (ctest runs each test as its own process).
fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir = fs::temp_directory_path() /
               ("titanrel_tdf_roundtrip_" + std::to_string(::getpid()));
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

const study::StudyContext& simulated() {
  static const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  return context;
}

const fs::path& text_dir() {
  static const fs::path dir = [] {
    const auto path = scratch_root() / "text";
    study::write_dataset(simulated(), path, study::DatasetFormat::kText);
    return path;
  }();
  return dir;
}

const fs::path& binary_dir() {
  static const fs::path dir = [] {
    const auto path = scratch_root() / "binary";
    study::write_dataset(simulated(), path, study::DatasetFormat::kBinary);
    return path;
  }();
  return dir;
}

const study::AnalysisRegistry& registry() { return study::AnalysisRegistry::standard(); }

TEST(TdfRoundTrip, BinaryLoadMatchesTextLoad) {
  const auto text = study::DatasetSource{text_dir()}.load();
  const auto binary = study::DatasetSource{binary_dir()}.load();

  EXPECT_FALSE(text.load_stats.binary);
  EXPECT_TRUE(binary.load_stats.binary);
  EXPECT_EQ(binary.load_stats.shards, 0U);  // a one-container roster, not "1 shard"
  EXPECT_EQ(binary.load_stats.tdf_segments, 8U);
  EXPECT_GT(binary.load_stats.tdf_bytes, 0U);
  // The one container appends its windows whole: the stream must span
  // more than one window for the append to cross a window boundary.
  ASSERT_GT(binary.frame.size(), tdf::kTdfStreamWindowRows);

  EXPECT_EQ(text.frame, binary.frame);
  EXPECT_EQ(text.period.begin, binary.period.begin);
  EXPECT_EQ(text.period.end, binary.period.end);
  EXPECT_EQ(text.accounting_from, binary.accounting_from);
  EXPECT_EQ(text.capabilities, binary.capabilities);
  EXPECT_EQ(text.job_log.size(), binary.job_log.size());
}

TEST(TdfRoundTrip, ReportsByteIdenticalAcrossSourcesAndWidths) {
  const auto text = study::DatasetSource{text_dir()}.load();
  const auto binary = study::DatasetSource{binary_dir()}.load();
  const auto shared = registry().available(text);
  ASSERT_FALSE(shared.empty());

  std::string reference_text;
  std::string reference_json;
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    const ThreadsGuard guard{width};
    const auto from_text = registry().run(text, shared);
    const auto from_binary = registry().run(binary, shared);
    const auto from_sim = registry().run(simulated(), shared);

    EXPECT_EQ(from_text.text(), from_binary.text()) << "width " << width;
    EXPECT_EQ(from_text.json(), from_binary.json()) << "width " << width;
    EXPECT_EQ(from_text.text(), from_sim.text()) << "width " << width;
    EXPECT_EQ(from_text.json(), from_sim.json()) << "width " << width;

    if (reference_text.empty()) {
      reference_text = from_text.text();
      reference_json = from_text.json();
    } else {
      EXPECT_EQ(from_text.text(), reference_text) << "width " << width;
      EXPECT_EQ(from_text.json(), reference_json) << "width " << width;
    }
  }
}

TEST(TdfRoundTrip, TextBinaryTextChainReproducesTextArtifacts) {
  // text -> load -> binary -> load -> text must reproduce the same bytes
  // as text -> load -> text: both ends are re-rendered from events, so
  // any drift would mean the binary hop lost information.
  const auto from_text = study::DatasetSource{text_dir()}.load();
  const auto direct = scratch_root() / "chain_direct";
  study::write_dataset(from_text, direct, study::DatasetFormat::kText);

  const auto hop_binary = scratch_root() / "chain_binary";
  study::write_dataset(from_text, hop_binary, study::DatasetFormat::kBinary);
  const auto from_binary = study::DatasetSource{hop_binary}.load();
  const auto chained = scratch_root() / "chain_text";
  study::write_dataset(from_binary, chained, study::DatasetFormat::kText);

  for (const auto name : {"console.log", "jobs.log", "smi_sweep.txt", "manifest.txt"}) {
    EXPECT_EQ(study::read_all(direct / name), study::read_all(chained / name)) << name;
  }
}

TEST(TdfRoundTrip, NonTitanChainKeepsFleetWording) {
  // An a100 dataset names its DBE "Contained uncorrectable ECC error";
  // re-serializing a loaded context must keep that wording, not fall back
  // to Titan's, through text -> binary -> text.
  const auto simulated_a100 =
      study::SimulatedSource{core::quick_config(kSeed, profile::a100())}.load();
  const auto text = scratch_root() / "a100_text";
  study::write_dataset(simulated_a100, text, study::DatasetFormat::kText);
  const auto from_text = study::DatasetSource{text}.load();
  const auto binary = scratch_root() / "a100_binary";
  study::write_dataset(from_text, binary, study::DatasetFormat::kBinary);
  const auto from_binary = study::DatasetSource{binary}.load();
  const auto chained = scratch_root() / "a100_chain_text";
  study::write_dataset(from_binary, chained, study::DatasetFormat::kText);

  const auto original = study::read_all(text / "console.log");
  const auto rewritten = study::read_all(chained / "console.log");
  ASSERT_NE(original.find("Contained uncorrectable ECC error"), std::string::npos);
  EXPECT_EQ(rewritten.find("Double Bit Error"), std::string::npos);
  EXPECT_TRUE(rewritten == original) << "console.log changed through the binary hop";
}

TEST(TdfRoundTrip, FromColumnsMatchesBuildFromParsedEvents) {
  // The binary load builds its frame from decoded columns; the same rows
  // as ParsedEvents must build the identical frame (derived columns and
  // per-kind index included).
  const auto binary = study::DatasetSource{binary_dir()}.load();
  const auto& frame = binary.frame;
  std::vector<parse::ParsedEvent> rows;
  rows.reserve(frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    rows.push_back(parse::ParsedEvent{frame.times()[i], frame.nodes()[i], frame.kinds()[i],
                                      frame.structures()[i]});
  }
  EXPECT_EQ(analysis::EventFrame::build(std::span<const parse::ParsedEvent>{rows}), frame);
}

TEST(TdfRoundTrip, WritesLeaveNoTmpFiles) {
  for (const auto& dir : {text_dir(), binary_dir()}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos) << entry.path();
    }
  }
}

TEST(TdfFile, WriteReadRoundTripLeavesNoTmpFiles) {
  // The one container writer, for dataset.tdf and a shard roster alike:
  // every container lands whole (no tmp left behind), its manifest claim
  // is the container claim of the bytes on disk, and the mapped containers
  // decode back to the frame, in roster order.
  const auto sharded = scratch_root() / "file_sharded";
  study::write_sharded_dataset(simulated(), sharded, 3);
  for (const auto& dir : {binary_dir(), sharded}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }
    ingest::IngestReport report{ingest::IngestPolicy::kStrict};
    const auto manifest = study::read_manifest(dir, ingest::IngestPolicy::kStrict, report);
    const auto layout = study::dataset_layout(dir, manifest);
    ASSERT_EQ(manifest.checksums.size(), layout.containers) << dir;

    std::vector<stats::TimeSec> times;
    std::vector<topology::NodeId> nodes;
    for (std::size_t s = 0; s < layout.containers; ++s) {
      const auto name = layout.container(s);
      EXPECT_EQ(manifest.checksums[s].first, name);
      const tdf::MappedFile mapped{dir / name};
      EXPECT_EQ(manifest.checksums[s].second, tdf::container_claim(mapped.bytes())) << name;
      const auto data =
          tdf::decode_tdf(mapped.bytes(), name, ingest::IngestPolicy::kStrict, report);
      times.insert(times.end(), data.times.begin(), data.times.end());
      nodes.insert(nodes.end(), data.nodes.begin(), data.nodes.end());
      EXPECT_EQ(data.has_jobs, s + 1 == layout.containers) << name;
    }
    const auto& frame = simulated().frame;
    EXPECT_TRUE(std::equal(times.begin(), times.end(), frame.times().begin(),
                           frame.times().end()));
    EXPECT_TRUE(std::equal(nodes.begin(), nodes.end(), frame.nodes().begin(),
                           frame.nodes().end()));
  }
}

// The datasets quick_config(7) makes under two fleet profiles, written
// four ways, each pinned by its manifest twice: as the writer writes it
// (v2) and as a v1 manifest records it, with whole-file FNV-1a claims.
// The v1 claims cover every byte, so they pin the bytes of every artifact
// each writer produces; they now test the v1 reader too.
struct PinnedDataset {
  const char* profile;
  const char* writer;
  const char* manifest;     ///< the v2 manifest the writer commits
  const char* v1_manifest;  ///< the same dataset under v1 claims
};

const PinnedDataset kPinned[] = {
    {"k20x-titan", "text",
     R"(titanrel-dataset v2
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile k20x-titan f234fe754224d7fe
checksum console.log d53ea5335f0578aa
checksum jobs.log 4de9e24160e84d20
checksum smi_sweep.txt 6cfaef021aff0efd
)",
     R"(titanrel-dataset v1
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile k20x-titan f234fe754224d7fe
checksum console.log c526b9d4bfd3558c
checksum jobs.log 5de157b5914d3472
checksum smi_sweep.txt 0be62ce14b532dd6
)"},
    {"k20x-titan", "binary",
     R"(titanrel-dataset v2
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile k20x-titan f234fe754224d7fe
checksum dataset.tdf 4131acf70ecb1293
)",
     R"(titanrel-dataset v1
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile k20x-titan f234fe754224d7fe
checksum dataset.tdf 92a860afd6f876cb
)"},
    {"k20x-titan", "resharded",
     R"(titanrel-dataset v2
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile k20x-titan f234fe754224d7fe
shards 3
checksum dataset.shard-0.tdf c4792abbc2ae7108
checksum dataset.shard-1.tdf d814c4f88cc91f89
checksum dataset.shard-2.tdf 0703a188b02bee42
)",
     R"(titanrel-dataset v1
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile k20x-titan f234fe754224d7fe
shards 3
checksum dataset.shard-0.tdf 19568ac47dc82a5c
checksum dataset.shard-1.tdf 647225d2746576bf
checksum dataset.shard-2.tdf d171676a087761ac
)"},
    {"k20x-titan", "generated",
     R"(titanrel-dataset v2
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile k20x-titan f234fe754224d7fe
shards 3
checksum dataset.shard-0.tdf 4a508daa213ee59a
checksum dataset.shard-1.tdf b7240c7049dbf9c8
checksum dataset.shard-2.tdf 6bee41d521f3b670
)",
     R"(titanrel-dataset v1
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile k20x-titan f234fe754224d7fe
shards 3
checksum dataset.shard-0.tdf 740e845a5ca87f29
checksum dataset.shard-1.tdf 591e17932a41c443
checksum dataset.shard-2.tdf ffd28f1205011eb0
)"},
    {"a100", "text",
     R"(titanrel-dataset v2
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile a100 8bf3a717d57a1594
checksum console.log 37a0bfa44ac9a2dc
checksum jobs.log 4de9e24160e84d20
checksum smi_sweep.txt 4a531791c45220bb
)",
     R"(titanrel-dataset v1
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile a100 8bf3a717d57a1594
checksum console.log cd16de60bf35693c
checksum jobs.log 5de157b5914d3472
checksum smi_sweep.txt f2993163dfc1ef1d
)"},
    {"a100", "binary",
     R"(titanrel-dataset v2
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile a100 8bf3a717d57a1594
checksum dataset.tdf 4d04d0f83eaf8ba2
)",
     R"(titanrel-dataset v1
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile a100 8bf3a717d57a1594
checksum dataset.tdf cf196ce456ed2a18
)"},
    {"a100", "resharded",
     R"(titanrel-dataset v2
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile a100 8bf3a717d57a1594
shards 3
checksum dataset.shard-0.tdf 7e75c475087b1e88
checksum dataset.shard-1.tdf ecbd109a10cf9d54
checksum dataset.shard-2.tdf f574377f73191dd0
)",
     R"(titanrel-dataset v1
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile a100 8bf3a717d57a1594
shards 3
checksum dataset.shard-0.tdf 5cc6b2b788fb9e84
checksum dataset.shard-1.tdf 772acd33955eb95c
checksum dataset.shard-2.tdf 59587216c25f496e
)"},
    {"a100", "generated",
     R"(titanrel-dataset v2
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile a100 8bf3a717d57a1594
shards 3
checksum dataset.shard-0.tdf 5565ef652497d42d
checksum dataset.shard-1.tdf a3b02433cc304d99
checksum dataset.shard-2.tdf f56467e98ecc8c86
)",
     R"(titanrel-dataset v1
period_begin 1383264000
period_end 1391212800
accounting_from 1388534400
profile a100 8bf3a717d57a1594
shards 3
checksum dataset.shard-0.tdf 0781fdddd45ceae3
checksum dataset.shard-1.tdf b4ce829084ec9df4
checksum dataset.shard-2.tdf 2098c6200e256564
)"},
};

/// Write pinned dataset `pinned` into `dir` with its writer.
void write_pinned(const PinnedDataset& pinned, const fs::path& dir) {
  auto config = core::quick_config(7);
  core::apply_profile(config, *profile::find_profile(pinned.profile));
  const std::string_view way = pinned.writer;
  if (way == "generated") {
    study::generate_sharded_dataset(config, 3, dir);
    return;
  }
  const auto context = study::SimulatedSource{config}.load();
  if (way == "text") study::write_dataset(context, dir, study::DatasetFormat::kText);
  if (way == "binary") study::write_dataset(context, dir, study::DatasetFormat::kBinary);
  if (way == "resharded") study::write_sharded_dataset(context, dir, 3);
}

TEST(DatasetBytes, ManifestsPinned) {
  // The same manifest bytes at any pool width: claims are cut by the
  // format, never by the thread count.
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    const ThreadsGuard guard{width};
    for (const auto& pinned : kPinned) {
      const auto dir = scratch_root() / "pinned" / std::to_string(width) / pinned.profile /
                       pinned.writer;
      write_pinned(pinned, dir);
      EXPECT_EQ(study::read_all(dir / "manifest.txt"), pinned.manifest)
          << pinned.profile << ' ' << pinned.writer << " width " << width;
    }
  }
}

TEST(DatasetBytes, V1ManifestsLoadToTheSameReportAndFsckClean) {
  // Each pinned dataset with its manifest rewritten by hand as v1: the v1
  // reader loads it strictly to the same report bytes, and fsck hashes
  // every artifact whole and finds it clean.
  for (const auto& pinned : kPinned) {
    const auto dir = scratch_root() / "pinned_v1" / pinned.profile / pinned.writer;
    write_pinned(pinned, dir);
    const auto expected = registry().run_all(study::DatasetSource{dir}.load()).text();
    study::write_text(dir / "manifest.txt", pinned.v1_manifest);
    EXPECT_EQ(study::fsck_dataset(dir).report_text(),
              "titanrel fsck\nlayout: " +
                  std::string{study::dataset_layout(dir).name()} +
                  "\nfindings: 0\nverdict: clean\n")
        << pinned.profile << ' ' << pinned.writer;
    EXPECT_EQ(registry().run_all(study::DatasetSource{dir}.load()).text(), expected)
        << pinned.profile << ' ' << pinned.writer;
  }
}

// A job whose doubles print hundreds of digits at four decimals, and one
// with NaN fields, survive every writer: the text line is never cut
// short, so no format drops the job.
TEST(TdfRoundTrip, HugeAndNanJobValuesSurviveEveryWriter) {
  auto context = study::DatasetSource{text_dir()}.load();
  ASSERT_GE(context.job_log.size(), 4U);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  context.job_log[0].gpu_core_hours = 1e240;
  context.job_log[1].gpu_core_hours = 1e300;
  context.job_log[2].max_memory_gb = -std::numeric_limits<double>::max();
  context.job_log[3].gpu_core_hours = nan;
  context.job_log[3].max_memory_gb = nan;
  context.job_log[3].total_memory_gb = nan;

  const auto root = scratch_root() / "huge_jobs";
  study::write_dataset(context, root / "text", study::DatasetFormat::kText);
  study::write_dataset(context, root / "binary", study::DatasetFormat::kBinary);
  study::write_sharded_dataset(context, root / "sharded", 3);
  for (const char* writer : {"text", "binary", "sharded"}) {
    const auto loaded = study::DatasetSource{root / writer}.load();
    ASSERT_EQ(loaded.job_log.size(), context.job_log.size()) << writer;
    EXPECT_EQ(loaded.job_log[0].gpu_core_hours, 1e240) << writer;
    EXPECT_EQ(loaded.job_log[1].gpu_core_hours, 1e300) << writer;
    EXPECT_EQ(loaded.job_log[2].max_memory_gb, -std::numeric_limits<double>::max()) << writer;
    EXPECT_TRUE(std::isnan(loaded.job_log[3].gpu_core_hours)) << writer;
    EXPECT_TRUE(std::isnan(loaded.job_log[3].max_memory_gb)) << writer;
    EXPECT_TRUE(std::isnan(loaded.job_log[3].total_memory_gb)) << writer;
  }
}

TEST(StudyIoCap, OversizedFilesRejectedWithNamedCode) {
  const auto path = scratch_root() / "huge.bin";
  {
    std::ofstream out{path, std::ios::binary};
    out.put('x');
  }
  std::error_code ec;
  fs::resize_file(path, study::kMaxIngestFileBytes + 1, ec);
  if (ec) GTEST_SKIP() << "filesystem cannot create a sparse 4 GiB file: " << ec.message();

  for (const auto mode : {0, 1}) {
    try {
      if (mode == 0) {
        (void)study::read_all(path);
      } else {
        (void)study::read_lines(path);
      }
      FAIL() << "oversized file must be rejected (mode " << mode << ")";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.code(), TriageCode::kFileTooLarge);
      EXPECT_NE(std::string{error.what()}.find("E_FILE_TOO_LARGE"), std::string::npos);
    }
  }
  fs::remove(path);
}

}  // namespace
}  // namespace titan
