// Crash-state detection at the dataset boundary: the read-only fsck
// report (titan-convert --fsck) and the loader's crash gate.  A clean
// dataset reports clean with a byte-stable report; orphan tmp files,
// a checkpoint outliving its run, a hole in the shard roster and a
// checksum divergence each surface as the right named finding.  The
// loader gate mirrors the taxonomy: orphan tmps quarantine under
// salvage (E_ORPHAN_TMP recorded) and throw under strict; a checkpoint
// without a manifest is fatal under BOTH policies (E_CKPT_INCOMPLETE --
// "salvaging" a half-written dataset would silently study a partial
// campaign).  The layout test pins that the manifest, not whichever
// container happens to exist, decides what a directory holds.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "ckpt/study_ckpt.hpp"
#include "core/facility.hpp"
#include "ingest/triage.hpp"
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
using ingest::IngestPolicy;
using ingest::TriageCode;

constexpr std::uint64_t kSeed = 29;

fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir =
        fs::temp_directory_path() / ("titanrel_study_fsck_" + std::to_string(::getpid()));
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

/// A fresh copy of a committed sharded dataset to damage.
fs::path damaged_copy(const char* name, std::size_t shards = 3) {
  static const fs::path pristine = [] {
    const auto dir = scratch_root() / "pristine";
    study::generate_sharded_dataset(core::quick_config(kSeed), 3, dir);
    return dir;
  }();
  const auto dir = scratch_root() / name;
  fs::remove_all(dir);
  if (shards == 3) {
    fs::copy(pristine, dir, fs::copy_options::recursive);
  } else {
    study::generate_sharded_dataset(core::quick_config(kSeed), shards, dir);
  }
  return dir;
}

bool has_finding(const study::FsckResult& result, TriageCode code) {
  for (const auto& finding : result.findings) {
    if (finding.code == code) return true;
  }
  return false;
}

TEST(StudyFsck, CleanDatasetReportsCleanAndByteStable) {
  const auto dir = damaged_copy("clean");
  const auto result = study::fsck_dataset(dir);
  EXPECT_TRUE(result.clean()) << result.report_text();
  EXPECT_EQ(result.layout, "sharded");
  EXPECT_EQ(result.report_text(),
            "titanrel fsck\nlayout: sharded\nfindings: 0\nverdict: clean\n");
  // Read-only: fsck must not mutate the dataset it inspects.
  EXPECT_EQ(study::fsck_dataset(dir).report_text(), result.report_text());
}

TEST(StudyFsck, OrphanTmpIsNamed) {
  const auto dir = damaged_copy("orphan");
  study::write_text(dir / "manifest.txt.tmp", "half-written\n");
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_finding(result, TriageCode::kOrphanTmp)) << result.report_text();
  EXPECT_NE(result.report_text().find("manifest.txt.tmp E_ORPHAN_TMP"),
            std::string::npos)
      << result.report_text();
}

TEST(StudyFsck, MissingShardIsNamedPartialSet) {
  const auto dir = damaged_copy("hole");
  fs::remove(dir / tdf::shard_file_name(1));
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_finding(result, TriageCode::kPartialShardSet)) << result.report_text();
}

TEST(StudyFsck, ShardBeyondTheDeclaredCountIsNamed) {
  const auto dir = damaged_copy("extra");
  fs::copy_file(dir / tdf::shard_file_name(0), dir / tdf::shard_file_name(3));
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_finding(result, TriageCode::kPartialShardSet)) << result.report_text();
}

TEST(StudyFsck, CheckpointWithoutManifestIsNamedIncomplete) {
  const auto dir = damaged_copy("interrupted");
  fs::remove(dir / "manifest.txt");
  ckpt::StudyCheckpoint intent;
  intent.profile_name = "k20x-titan";
  intent.card_fences = {0};
  ckpt::save_study_checkpoint(intent, dir);
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_finding(result, TriageCode::kCkptIncomplete)) << result.report_text();
}

TEST(StudyFsck, CorruptShardBytesAreNamedChecksumMismatch) {
  const auto dir = damaged_copy("corrupt");
  auto bytes = study::read_all(dir / tdf::shard_file_name(0));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
  study::write_text(dir / tdf::shard_file_name(0), bytes);
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_finding(result, TriageCode::kChecksumMismatch)) << result.report_text();
}

// ---------------------------------------------------------------------------
// The loader's crash gate (DatasetSource::load).
// ---------------------------------------------------------------------------

TEST(StudyCrashGate, OrphanTmpThrowsStrictAndQuarantinesSalvage) {
  const auto dir = damaged_copy("gate_orphan");
  study::write_text(dir / "console.log.tmp", "torn\n");

  try {
    (void)study::DatasetSource{dir, IngestPolicy::kStrict}.load();
    FAIL() << "strict load over crash evidence must throw";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kOrphanTmp) << error.what();
    EXPECT_EQ(error.file(), "console.log.tmp");
  }
  EXPECT_TRUE(fs::exists(dir / "console.log.tmp")) << "strict must not mutate";

  const auto context = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
  ASSERT_TRUE(context.ingest_report.has_value());
  EXPECT_EQ(context.ingest_report->count(TriageCode::kOrphanTmp), 1U);
  EXPECT_FALSE(fs::exists(dir / "console.log.tmp"));
  EXPECT_TRUE(fs::exists(dir / "console.log.tmp.quarantined"))
      << "salvage sets the evidence aside instead of deleting it";
}

TEST(StudyCrashGate, CheckpointWithoutManifestIsFatalUnderBothPolicies) {
  const auto dir = damaged_copy("gate_ckpt");
  fs::remove(dir / "manifest.txt");
  ckpt::StudyCheckpoint intent;
  intent.profile_name = "k20x-titan";
  intent.card_fences = {0};
  ckpt::save_study_checkpoint(intent, dir);

  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    try {
      (void)study::DatasetSource{dir, policy}.load();
      FAIL() << "an interrupted write must not load as a dataset";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.code(), TriageCode::kCkptIncomplete) << error.what();
      EXPECT_NE(std::string{error.what()}.find("--resume"), std::string::npos)
          << "the message must point at the remedy";
    }
  }
}

TEST(StudyCrashGate, LingeringCheckpointBesideManifestIsIgnored) {
  const auto dir = damaged_copy("gate_lingering");
  ckpt::StudyCheckpoint intent;
  intent.profile_name = "k20x-titan";
  intent.card_fences = {0};
  ckpt::save_study_checkpoint(intent, dir);

  // With the manifest committed the checkpoint is garbage, not damage:
  // both policies load, and the strict load carries no report at all.
  const auto strict = study::DatasetSource{dir, IngestPolicy::kStrict}.load();
  EXPECT_FALSE(strict.ingest_report.has_value());
  const auto salvage = study::DatasetSource{dir, IngestPolicy::kSalvage}.load();
  ASSERT_TRUE(salvage.ingest_report.has_value());
  EXPECT_EQ(salvage.ingest_report->count(TriageCode::kCkptIncomplete), 0U);
}

// ---------------------------------------------------------------------------
// The layout decision (study::dataset_layout, via the loader and fsck).
// ---------------------------------------------------------------------------

/// Report bytes of a strict load of `dir` over every analysis it supports.
std::string report_bytes(const fs::path& dir) {
  const auto context = study::DatasetSource{dir}.load();
  const auto& registry = study::AnalysisRegistry::standard();
  const auto report = registry.run(context, registry.available(context));
  return report.text() + report.json();
}

TEST(StudyLayout, ManifestPicksTheLayoutOverStaleContainers) {
  // A fresh dataset written over the remains of another study's dataset
  // in a different layout: the manifest names the fresh artifacts, so the
  // stale containers must be neither loaded nor reported as the layout.
  const auto fresh = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto stale = study::SimulatedSource{core::quick_config(kSeed + 2)}.load();
  const auto write_text = [](const study::StudyContext& c, const fs::path& dir) {
    study::write_dataset(c, dir, study::DatasetFormat::kText);
  };
  const auto write_binary = [](const study::StudyContext& c, const fs::path& dir) {
    study::write_dataset(c, dir, study::DatasetFormat::kBinary);
  };
  const auto write_shards = [](const study::StudyContext& c, const fs::path& dir) {
    (void)study::write_sharded_dataset(c, dir, 3);
  };
  using Write = void (*)(const study::StudyContext&, const fs::path&);
  struct Case {
    const char* name;
    Write stale_write;
    Write fresh_write;
    const char* layout;
  };
  const Case cases[] = {
      {"text_over_tdf", write_binary, write_text, "text"},
      {"text_over_shards", write_shards, write_text, "text"},
      {"shards_over_tdf", write_binary, write_shards, "sharded"},
  };
  for (const auto& c : cases) {
    const auto alone = scratch_root() / (std::string{c.name} + "_alone");
    const auto mixed = scratch_root() / (std::string{c.name} + "_mixed");
    c.fresh_write(fresh, alone);
    c.stale_write(stale, mixed);
    c.fresh_write(fresh, mixed);

    EXPECT_EQ(report_bytes(mixed), report_bytes(alone)) << c.name;
    EXPECT_EQ(study::fsck_dataset(mixed).layout, c.layout) << c.name;
    EXPECT_EQ(study::fsck_dataset(alone).layout, c.layout) << c.name;
  }
}

}  // namespace
}  // namespace titan
