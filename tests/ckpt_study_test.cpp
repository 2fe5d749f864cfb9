// ckpt::StudyCheckpoint: the intent record of an in-flight dataset
// write.  Round-trip byte-identity, the save/load disk cycle, and the
// damage taxonomy -- a torn, truncated, bit-flipped or field-mangled
// checkpoint must decode to a *named* E_CKPT_* failure (strict throws,
// salvage records + refuses) and never to a shorter-but-plausible
// record.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "ckpt/study_ckpt.hpp"
#include "ingest/triage.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using ckpt::StudyCheckpoint;
using ingest::IngestError;
using ingest::IngestPolicy;
using ingest::IngestReport;
using ingest::TriageCode;

fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir =
        fs::temp_directory_path() / ("titanrel_ckpt_study_" + std::to_string(::getpid()));
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

StudyCheckpoint sample_checkpoint() {
  StudyCheckpoint out;
  out.profile_name = "k20x-titan";
  out.profile_hash = 0x0123456789abcdefULL;
  out.shard_count = 3;
  return out;
}

/// Expect a decode of `text` to fail with `code`: strict throws, salvage
/// records the same finding and yields nothing.
void expect_named_rejection(const std::string& text, TriageCode code,
                            const char* context) {
  {
    IngestReport report{IngestPolicy::kStrict};
    try {
      (void)ckpt::decode_study_checkpoint(text, "study.ckpt", IngestPolicy::kStrict,
                                          report);
      FAIL() << context << ": strict decode must throw";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.code(), code) << context << ": " << error.what();
      EXPECT_EQ(error.file(), "study.ckpt");
    }
  }
  {
    IngestReport report{IngestPolicy::kSalvage};
    const auto decoded =
        ckpt::decode_study_checkpoint(text, "study.ckpt", IngestPolicy::kSalvage, report);
    EXPECT_FALSE(decoded.has_value()) << context << ": a torn checkpoint is never trusted";
    EXPECT_EQ(report.count(code), 1U) << context;
  }
}

TEST(CkptStudy, EncodeDecodeRoundTripIsByteIdentical) {
  const auto original = sample_checkpoint();
  const auto text = original.encode();
  IngestReport report{IngestPolicy::kStrict};
  const auto decoded =
      ckpt::decode_study_checkpoint(text, "study.ckpt", IngestPolicy::kStrict, report);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
  EXPECT_EQ(decoded->encode(), text) << "re-encode must be byte-identical";
}

TEST(CkptStudy, SaveLoadDiskCycle) {
  const auto dir = scratch_root() / "disk_cycle";
  fs::create_directories(dir);
  const auto original = sample_checkpoint();
  ckpt::save_study_checkpoint(original, dir);
  EXPECT_TRUE(fs::exists(dir / ckpt::kStudyCheckpointFileName));

  IngestReport report{IngestPolicy::kStrict};
  const auto loaded = ckpt::load_study_checkpoint(dir, IngestPolicy::kStrict, report);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, original);

  ckpt::remove_study_checkpoint(dir);
  EXPECT_FALSE(fs::exists(dir / ckpt::kStudyCheckpointFileName));
  // A missing checkpoint is not a finding: no write was in flight.
  const auto missing = ckpt::load_study_checkpoint(dir, IngestPolicy::kStrict, report);
  EXPECT_FALSE(missing.has_value());
  EXPECT_TRUE(report.clean());
}

TEST(CkptStudy, TruncationIsNamedChecksumDamage) {
  const auto text = sample_checkpoint().encode();
  // Cut mid-file: the checksum line is gone entirely.
  expect_named_rejection(text.substr(0, text.size() / 2), TriageCode::kCkptChecksum,
                         "mid-file cut");
  // Cut the final newline: the checksum line is no longer terminated.
  expect_named_rejection(text.substr(0, text.size() - 1), TriageCode::kCkptChecksum,
                         "missing final newline");
  expect_named_rejection("", TriageCode::kCkptChecksum, "empty file");
}

TEST(CkptStudy, BitFlipAnywhereIsNamedChecksumDamage) {
  const auto text = sample_checkpoint().encode();
  for (const std::size_t at : {std::size_t{20}, text.size() / 2}) {
    auto flipped = text;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x08);
    expect_named_rejection(flipped, TriageCode::kCkptChecksum, "bit flip");
  }
}

TEST(CkptStudy, WrongHeaderIsNamed) {
  const auto text = sample_checkpoint().encode();
  // Replace the header and re-stamp a VALID self-checksum, so the header
  // check (not the checksum) is what rejects it.
  const auto body_end = text.rfind("checksum ");
  std::string body = "titanrel-ckpt v9" + text.substr(text.find('\n'), body_end -
                                                                           text.find('\n'));
  body += "checksum " + ingest::checksum_hex(ingest::content_checksum(body)) + '\n';
  expect_named_rejection(body, TriageCode::kCkptHeader, "future version header");
}

TEST(CkptStudy, FieldDamageIsNamed) {
  const auto damaged = [](const char* needle, const char* replacement) {
    auto text = sample_checkpoint().encode();
    const auto at = text.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    text.replace(at, std::string{needle}.size(), replacement);
    // Re-stamp the self-checksum so the FIELD check is what rejects it.
    const auto body_end = text.rfind("checksum ");
    std::string body = text.substr(0, body_end);
    body += "checksum " + ingest::checksum_hex(ingest::content_checksum(body)) + '\n';
    return body;
  };
  expect_named_rejection(damaged("profile k20x-titan 0123", "profile k20x-titan zz23"),
                         TriageCode::kCkptField, "non-hex profile hash");
  expect_named_rejection(damaged("profile k20x-titan", "profile"), TriageCode::kCkptField,
                         "profile line without a name");
  expect_named_rejection(damaged("shards 3", "shards x"), TriageCode::kCkptField,
                         "non-numeric shard count");
  expect_named_rejection(damaged("shards 3\n", "shards 3\nseed 29\n"),
                         TriageCode::kCkptField, "unexpected extra line");
  expect_named_rejection(damaged("shards 3\n", ""), TriageCode::kCkptField,
                         "shards line missing");
}

}  // namespace
}  // namespace titan
