// Fleet-profile recording and validation across the dataset formats:
// round-trips carry the profile (TDF meta extension + manifest line),
// E_PROFILE_MISMATCH fires on every disagreement class, strict loads
// die on it, salvage loads warn and adopt the dataset's recorded
// profile, and pre-profile datasets still load (as k20x-titan).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "ingest/triage.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 31;

class ProfileMismatchTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("titan_profile_mismatch_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Write a binary (TDF) a100 dataset.
  void write_a100(study::DatasetFormat format) {
    const auto context =
        study::SimulatedSource{core::quick_config(kSeed, profile::a100())}.load();
    study::write_dataset(context, dir_, format);
  }

  std::string read_manifest() const {
    std::ifstream in{dir_ / "manifest.txt", std::ios::binary};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  void write_manifest(const std::string& bytes) const {
    std::ofstream out{dir_ / "manifest.txt", std::ios::binary | std::ios::trunc};
    out << bytes;
  }

  /// Rewrite the manifest's `profile <name> <hash>` line.
  void patch_profile_line(const std::string& replacement) const {
    auto manifest = read_manifest();
    const auto pos = manifest.find("profile ");
    ASSERT_NE(pos, std::string::npos);
    const auto eol = manifest.find('\n', pos);
    manifest.replace(pos, eol - pos, replacement);
    write_manifest(manifest);
  }

  fs::path dir_;
};

TEST_F(ProfileMismatchTest, BinaryRoundTripRecordsAndAdoptsTheProfile) {
  write_a100(study::DatasetFormat::kBinary);

  const auto info = tdf::inspect_tdf(dir_ / std::string{tdf::kTdfFileName});
  EXPECT_EQ(info.profile_name, "a100");
  EXPECT_EQ(info.profile_hash, profile::a100().content_hash());
  EXPECT_NE(read_manifest().find("profile a100 "), std::string::npos);

  // Unstated expectation: the recorded profile is adopted silently.
  const auto context = study::DatasetSource{dir_}.load();
  EXPECT_EQ(context.profile, &profile::a100());

  // Matching expectation: clean strict load.
  const auto asserted =
      study::DatasetSource{dir_, ingest::IngestPolicy::kStrict, &profile::a100()}.load();
  EXPECT_EQ(asserted.profile, &profile::a100());
}

TEST_F(ProfileMismatchTest, StrictExpectedProfileDisagreementThrows) {
  write_a100(study::DatasetFormat::kBinary);
  try {
    const auto context =
        study::DatasetSource{dir_, ingest::IngestPolicy::kStrict, &profile::h100()}.load();
    FAIL() << "expected ingest::IngestError, got a context with "
           << context.frame.size() << " events";
  } catch (const ingest::IngestError& error) {
    EXPECT_EQ(error.code(), ingest::TriageCode::kProfileMismatch);
    EXPECT_NE(std::string{error.what()}.find("E_PROFILE_MISMATCH"), std::string::npos);
  }
}

TEST_F(ProfileMismatchTest, SalvageExpectedProfileDisagreementAdoptsDatasets) {
  write_a100(study::DatasetFormat::kBinary);
  const auto context =
      study::DatasetSource{dir_, ingest::IngestPolicy::kSalvage, &profile::h100()}.load();
  // The dataset's recorded profile wins; the disagreement is on record.
  EXPECT_EQ(context.profile, &profile::a100());
  ASSERT_TRUE(context.ingest_report.has_value());
  EXPECT_EQ(context.ingest_report->count(ingest::TriageCode::kProfileMismatch), 1U);
}

TEST_F(ProfileMismatchTest, TextManifestUnknownProfileNameFallsBack) {
  write_a100(study::DatasetFormat::kText);
  patch_profile_line("profile gtx480-fleet 0123456789abcdef");

  EXPECT_THROW(study::DatasetSource{dir_}.load(), ingest::IngestError);

  const auto context =
      study::DatasetSource{dir_, ingest::IngestPolicy::kSalvage}.load();
  EXPECT_EQ(context.profile, &profile::k20x_titan());  // no expectation -> k20x fallback
  ASSERT_TRUE(context.ingest_report.has_value());
  EXPECT_EQ(context.ingest_report->count(ingest::TriageCode::kProfileMismatch), 1U);
}

TEST_F(ProfileMismatchTest, TextManifestHashDivergenceAdoptsTheNamedProfile) {
  write_a100(study::DatasetFormat::kText);
  patch_profile_line("profile a100 0000000000000000");

  EXPECT_THROW(study::DatasetSource{dir_}.load(), ingest::IngestError);

  const auto context =
      study::DatasetSource{dir_, ingest::IngestPolicy::kSalvage}.load();
  EXPECT_EQ(context.profile, &profile::a100());  // name resolves; hash flagged
  ASSERT_TRUE(context.ingest_report.has_value());
  EXPECT_EQ(context.ingest_report->count(ingest::TriageCode::kProfileMismatch), 1U);
}

TEST_F(ProfileMismatchTest, PreProfileManifestLoadsAsK20x) {
  write_a100(study::DatasetFormat::kText);
  // Strip the profile line entirely: the manifest a pre-profile writer
  // produced.  Text datasets carry the profile only there, so the load
  // must fall back to the paper's fleet without any finding.
  auto manifest = read_manifest();
  const auto pos = manifest.find("profile ");
  ASSERT_NE(pos, std::string::npos);
  manifest.erase(pos, manifest.find('\n', pos) - pos + 1);
  write_manifest(manifest);

  const auto context = study::DatasetSource{dir_}.load();
  EXPECT_EQ(context.profile, &profile::k20x_titan());
  // With an expectation, the unrecorded case adopts the expectation.
  const auto expected =
      study::DatasetSource{dir_, ingest::IngestPolicy::kStrict, &profile::h100()}.load();
  EXPECT_EQ(expected.profile, &profile::h100());
}

TEST_F(ProfileMismatchTest, TdfMetaWithoutExtensionDecodesEmptyProfile) {
  // A meta segment of exactly the fixed 48-byte prefix (what pre-profile
  // writers emitted) must decode with no profile recorded.
  tdf::TdfDataset data;
  data.period_begin = 0;
  data.period_end = 3600;
  const auto encoded = tdf::encode_tdf(data);  // empty name -> no extension
  ingest::IngestReport report{ingest::IngestPolicy::kStrict};
  const auto decoded =
      tdf::decode_tdf(encoded, "dataset.tdf", ingest::IngestPolicy::kStrict, report);
  EXPECT_TRUE(decoded.profile_name.empty());
  EXPECT_EQ(decoded.profile_hash, 0U);
}

}  // namespace
}  // namespace titan
