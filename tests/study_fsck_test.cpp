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
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/study_ckpt.hpp"
#include "core/facility.hpp"
#include "ingest/triage.hpp"
#include "study/crashtest.hpp"
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
  // Every writer's output, re-hashed from disk: the claims each writer
  // computed from the bytes it wrote must match the bytes that landed.
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto text = scratch_root() / "clean_text";
  study::write_dataset(context, text, study::DatasetFormat::kText);
  const auto binary = scratch_root() / "clean_binary";
  study::write_dataset(context, binary, study::DatasetFormat::kBinary);
  const auto resharded = scratch_root() / "clean_resharded";
  (void)study::write_sharded_dataset(context, resharded, 2);

  for (const auto& [dir, layout] : {std::pair{text, "text"}, std::pair{binary, "binary"},
                                    std::pair{resharded, "sharded"},
                                    std::pair{damaged_copy("clean"), "sharded"}}) {
    const auto result = study::fsck_dataset(dir);
    EXPECT_TRUE(result.clean()) << result.report_text();
    EXPECT_EQ(result.layout, layout);
    EXPECT_EQ(result.report_text(), "titanrel fsck\nlayout: " + std::string{layout} +
                                        "\nfindings: 0\nverdict: clean\n");
    // Read-only: fsck must not mutate the dataset it inspects.
    EXPECT_EQ(study::fsck_dataset(dir).report_text(), result.report_text());
  }
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
  // A shard beyond the roster is an artifact the manifest does not
  // claim: the loader never reads it, fsck names it.
  const auto dir = damaged_copy("extra");
  fs::copy_file(dir / tdf::shard_file_name(0), dir / tdf::shard_file_name(3));
  const auto result = study::fsck_dataset(dir);
  EXPECT_FALSE(result.clean());
  ASSERT_EQ(result.findings.size(), 1U) << result.report_text();
  EXPECT_EQ(result.findings[0].file, tdf::shard_file_name(3));
  EXPECT_EQ(result.findings[0].code, TriageCode::kUnclaimedArtifact) << result.report_text();
}

TEST(StudyFsck, HandCopiedSideArtifactIsNamedUnclaimed) {
  // A jobs.log copied beside a committed sharded dataset: fsck names it,
  // and both loads ignore it exactly as before.
  const auto dir = damaged_copy("unclaimed_jobs");
  const auto text = scratch_root() / "unclaimed_jobs_source";
  study::write_dataset(study::SimulatedSource{core::quick_config(kSeed + 2)}.load(), text);
  const auto before = study::DatasetSource{dir}.load();
  fs::copy_file(text / "jobs.log", dir / "jobs.log");

  const auto result = study::fsck_dataset(dir);
  EXPECT_EQ(result.report_text(),
            "titanrel fsck\nlayout: sharded\nfindings: 1\n  jobs.log E_UNCLAIMED_ARTIFACT: "
            "dataset artifact the manifest does not claim (loads ignore it; rerunning the "
            "writer removes it)\nverdict: crash-state\n");
  EXPECT_FALSE(ingest::fatal_in_strict(TriageCode::kUnclaimedArtifact));
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    const auto after = study::DatasetSource{dir, policy}.load();
    EXPECT_EQ(after.job_log.size(), before.job_log.size());
    EXPECT_EQ(after.frame.size(), before.frame.size());
    if (after.ingest_report) {
      EXPECT_TRUE(after.ingest_report->clean());
    }
  }
}

TEST(StudyFsck, CheckpointWithoutManifestIsNamedIncomplete) {
  const auto dir = damaged_copy("interrupted");
  fs::remove(dir / "manifest.txt");
  ckpt::StudyCheckpoint intent;
  intent.profile_name = "k20x-titan";
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
  ckpt::save_study_checkpoint(intent, dir);

  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    try {
      (void)study::DatasetSource{dir, policy}.load();
      FAIL() << "an interrupted write must not load as a dataset";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.code(), TriageCode::kCkptIncomplete) << error.what();
      EXPECT_NE(std::string{error.what()}.find("rerun the writer"), std::string::npos)
          << "the message must point at the remedy";
    }
  }
}

TEST(StudyCrashGate, LingeringCheckpointBesideManifestIsIgnored) {
  const auto dir = damaged_copy("gate_lingering");
  ckpt::StudyCheckpoint intent;
  intent.profile_name = "k20x-titan";
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

/// Copy into `dir` every dataset artifact of `from` that `dir` lacks, as a
/// hand copy would (no writer runs); returns the names copied.
std::vector<std::string> plant_stale_artifacts(const fs::path& from, const fs::path& dir) {
  std::vector<std::string> planted;
  for (const auto& name : study::scan_crash_state(from).artifacts) {
    if (fs::exists(dir / name)) continue;
    fs::copy_file(from / name, dir / name);
    planted.push_back(name);
  }
  return planted;
}

/// Whether fsck's only findings are E_UNCLAIMED_ARTIFACT, one per `names`.
bool only_unclaimed(const study::FsckResult& result, const std::vector<std::string>& names) {
  if (result.findings.size() != names.size()) return false;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (result.findings[i].file != names[i]) return false;
    if (result.findings[i].code != TriageCode::kUnclaimedArtifact) return false;
  }
  return true;
}

/// Report bytes of a strict load of `dir` over every analysis it supports.
std::string report_bytes(const fs::path& dir) {
  const auto context = study::DatasetSource{dir}.load();
  const auto& registry = study::AnalysisRegistry::standard();
  const auto report = registry.run(context, registry.available(context));
  return report.text() + report.json();
}

TEST(StudyLayout, ManifestPicksTheLayoutOverStaleContainers) {
  // A fresh dataset written over another study's dataset in a different
  // layout clears the stale containers; copied back in by hand, they must
  // be neither loaded nor taken for the layout while the manifest
  // decides, and fsck names each one.
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
    const auto old = scratch_root() / (std::string{c.name} + "_stale");
    c.fresh_write(fresh, alone);
    c.stale_write(stale, old);
    c.stale_write(stale, mixed);
    c.fresh_write(fresh, mixed);
    const auto diff = study::first_dir_difference(mixed, alone);
    EXPECT_FALSE(diff.has_value()) << c.name << ": " << *diff;
    const auto planted = plant_stale_artifacts(old, mixed);
    ASSERT_FALSE(planted.empty()) << c.name;

    EXPECT_EQ(report_bytes(mixed), report_bytes(alone)) << c.name;
    const auto fsck = study::fsck_dataset(mixed);
    EXPECT_EQ(fsck.layout, c.layout) << c.name;
    EXPECT_TRUE(only_unclaimed(fsck, planted)) << c.name << '\n' << fsck.report_text();
    EXPECT_EQ(study::fsck_dataset(alone).layout, c.layout) << c.name;
  }
}

TEST(StudyLayout, EveryLayoutOverEveryLayoutLeavesOnlyItsOwnFiles) {
  // Every ordered pair of writer layouts, the second written (from
  // another study) over the committed first in one directory: the
  // directory must hold exactly a fresh write's files, byte for byte,
  // and fsck must call it clean.
  const auto old_study = study::SimulatedSource{core::quick_config(kSeed + 2)}.load();
  const auto new_study = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto study_of = [&](std::uint64_t seed) -> const study::StudyContext& {
    return seed == kSeed ? new_study : old_study;
  };
  using Write = std::function<void(std::uint64_t, const fs::path&)>;
  const std::pair<const char*, Write> layouts[] = {
      {"text",
       [&](std::uint64_t seed, const fs::path& dir) {
         study::write_dataset(study_of(seed), dir, study::DatasetFormat::kText);
       }},
      {"binary",
       [&](std::uint64_t seed, const fs::path& dir) {
         study::write_dataset(study_of(seed), dir, study::DatasetFormat::kBinary);
       }},
      {"shards3",
       [](std::uint64_t seed, const fs::path& dir) {
         (void)study::generate_sharded_dataset(core::quick_config(seed), 3, dir);
       }},
      {"shards2",
       [](std::uint64_t seed, const fs::path& dir) {
         (void)study::generate_sharded_dataset(core::quick_config(seed), 2, dir);
       }},
      {"resharded4",
       [&](std::uint64_t seed, const fs::path& dir) {
         (void)study::write_sharded_dataset(study_of(seed), dir, 4);
       }},
  };
  const auto root = scratch_root() / "matrix";
  for (const auto& [name, write] : layouts) {
    write(kSeed + 2, root / (std::string{"old_"} + name));
    write(kSeed, root / (std::string{"new_"} + name));
  }
  for (const auto& [old_name, old_write] : layouts) {
    for (const auto& [new_name, new_write] : layouts) {
      const auto pair = std::string{new_name} + "_over_" + old_name;
      const auto dir = root / pair;
      const auto old_dir = root / (std::string{"old_"} + old_name);
      fs::copy(old_dir, dir);
      ASSERT_TRUE(study::dirs_identical(dir, old_dir)) << pair;
      new_write(kSeed, dir);
      const auto diff = study::first_dir_difference(dir, root / (std::string{"new_"} + new_name));
      EXPECT_FALSE(diff.has_value()) << pair << ": " << *diff;
      const auto fsck = study::fsck_dataset(dir);
      EXPECT_TRUE(fsck.clean()) << pair << '\n' << fsck.report_text();
    }
  }
}

TEST(StudyLayout, WritersNeverTouchFilesTheFormatDoesNotName) {
  // The begin step clears dataset artifact names only: a user's notes, a
  // backup copy and a shard name the writers never spell survive every
  // writer, and fsck has nothing to say about them.
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto dir = scratch_root() / "foreign_files";
  const std::vector<std::string> foreign = {"notes.txt", "console.log.bak",
                                            "dataset.shard-01.tdf", "dataset.shard-x.tdf"};
  fs::create_directories(dir);
  for (const auto& name : foreign) study::write_text(dir / name, name + '\n');
  study::write_dataset(context, dir, study::DatasetFormat::kText);
  study::write_dataset(context, dir, study::DatasetFormat::kBinary);
  (void)study::write_sharded_dataset(context, dir, 2);
  (void)study::generate_sharded_dataset(core::quick_config(kSeed), 3, dir);
  for (const auto& name : foreign) {
    EXPECT_EQ(study::read_all(dir / name), name + '\n') << name;
  }
  EXPECT_TRUE(study::fsck_dataset(dir).clean()) << study::fsck_dataset(dir).report_text();
}

TEST(StudyLayout, BeginStepLeavesALeftoverItCannotRemoveToFsck) {
  // A directory named like a leftover is no file the begin step may
  // delete: the write still commits, and fsck names the entry.
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto dir = scratch_root() / "tmp_directory";
  study::write_dataset(context, dir, study::DatasetFormat::kText);
  fs::create_directories(dir / "console.log.tmp");
  study::write_text(dir / "console.log.tmp" / "inside", "x\n");
  EXPECT_NO_THROW(study::write_dataset(context, dir, study::DatasetFormat::kBinary));
  EXPECT_TRUE(fs::exists(dir / "console.log.tmp" / "inside"));
  EXPECT_FALSE(fs::exists(dir / "console.log"));
  const auto fsck = study::fsck_dataset(dir);
  EXPECT_EQ(fsck.layout, "binary");
  EXPECT_TRUE(has_finding(fsck, TriageCode::kOrphanTmp)) << fsck.report_text();
}

TEST(StudyLayout, ManifestPicksTheSideArtifacts) {
  // A text dataset without some side artifact, written over another
  // study's complete text dataset, clears the stale jobs.log /
  // smi_sweep.txt.  Copied back in by hand, they are unclaimed by the
  // manifest and must not load, so the mixed directory reports exactly
  // what the fresh dataset reports alone, and fsck names each one.
  const auto stale = study::SimulatedSource{core::quick_config(kSeed + 2)}.load();
  const auto old = scratch_root() / "side_stale";
  study::write_dataset(stale, old);
  const auto full = scratch_root() / "side_full";
  study::write_dataset(study::SimulatedSource{core::quick_config(kSeed)}.load(), full);
  using Names = std::vector<std::string>;
  for (const auto& dropped : {Names{"jobs.log", "smi_sweep.txt"}, Names{"jobs.log"},
                              Names{"smi_sweep.txt"}}) {
    // The fresh context: the full dataset, loaded without `dropped` (and
    // without a manifest, so the missing files are no finding).
    std::string name = "side";
    const auto source = scratch_root() / "side_source";
    fs::remove_all(source);
    fs::copy(full, source);
    fs::remove(source / "manifest.txt");
    for (const auto& file : dropped) {
      fs::remove(source / file);
      name += '_' + fs::path{file}.stem().string();
    }
    const auto fresh = study::DatasetSource{source}.load();

    const auto alone = scratch_root() / (name + "_alone");
    const auto mixed = scratch_root() / (name + "_mixed");
    study::write_dataset(fresh, alone);
    study::write_dataset(stale, mixed);
    study::write_dataset(fresh, mixed);
    // The writer removed the stale artifacts its manifest does not claim.
    const auto diff = study::first_dir_difference(mixed, alone);
    EXPECT_FALSE(diff.has_value()) << name << ": " << *diff;
    const auto planted = plant_stale_artifacts(old, mixed);
    ASSERT_EQ(planted, dropped) << name;

    const auto from_alone = study::DatasetSource{alone}.load();
    const auto from_mixed = study::DatasetSource{mixed}.load();
    EXPECT_EQ(from_mixed.capabilities, from_alone.capabilities) << name;
    EXPECT_EQ(from_mixed.job_log.size(), from_alone.job_log.size()) << name;
    EXPECT_EQ(from_mixed.snapshot.records.size(), from_alone.snapshot.records.size()) << name;
    EXPECT_EQ(report_bytes(mixed), report_bytes(alone)) << name;
    const auto fsck = study::fsck_dataset(mixed);
    EXPECT_TRUE(only_unclaimed(fsck, planted)) << name << '\n' << fsck.report_text();
  }
}

}  // namespace
}  // namespace titan
