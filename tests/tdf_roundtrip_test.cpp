// Cross-source equivalence: the same campaign loaded from a text
// dataset, a TDF binary dataset, and the simulator must produce
// byte-identical StudyReports at any titan::par width, and converting
// text -> binary -> text must reproduce the text artifacts exactly.
// Plus the ingest-size-cap fixture for study::io.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "analysis/event_frame.hpp"
#include "core/facility.hpp"
#include "ingest/triage.hpp"
#include "par/pool.hpp"
#include "profile/fleet_profile.hpp"
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
  // is the checksum of the bytes on disk, and the mapped containers
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
      EXPECT_EQ(manifest.checksums[s].second, ingest::content_checksum(mapped.bytes()))
          << name;
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
