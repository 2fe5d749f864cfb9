// Sharded dataset path: shard-count invariance (reports byte-identical
// to the unsharded load at S in {1,3,7,16} x par widths {1,4}), k-way
// merge ordering with equal timestamps across shards, streaming
// SegmentReader equivalence at tiny windows, and the roster loader's
// failure taxonomy (corrupt shard named, missing shard fatal, meta
// window disagreement named, an empty stream named first).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/facility.hpp"
#include "ingest/triage.hpp"
#include "par/pool.hpp"
#include "study/registry.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using ingest::IngestError;
using ingest::IngestPolicy;
using ingest::IngestReport;
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
               ("titanrel_study_sharded_" + std::to_string(::getpid()));
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

const study::AnalysisRegistry& registry() { return study::AnalysisRegistry::standard(); }

/// The unsharded reference: the same campaign written monolithic.
const fs::path& monolithic_dir() {
  static const fs::path dir = [] {
    const auto path = scratch_root() / "monolithic";
    const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
    study::write_dataset(context, path, study::DatasetFormat::kBinary);
    return path;
  }();
  return dir;
}

/// Sharded dataset of the same campaign, generated out-of-core.
fs::path sharded_dir(std::size_t shards) {
  const auto path = scratch_root() / ("sharded_" + std::to_string(shards));
  if (!fs::exists(path)) {
    study::generate_sharded_dataset(core::quick_config(kSeed), shards, path);
  }
  return path;
}

/// Flip one byte in place.
void flip_byte(const fs::path& path, std::uintmax_t offset) {
  std::fstream io{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(io.good()) << path;
  io.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  io.get(byte);
  io.seekp(static_cast<std::streamoff>(offset));
  io.put(static_cast<char>(byte ^ 0x5a));
}

TEST(StudySharded, LoadMatchesMonolithicAtEveryShardCount) {
  const auto mono = study::DatasetSource{monolithic_dir()}.load();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                   std::size_t{16}}) {
    const auto context = study::DatasetSource{sharded_dir(shards)}.load();
    EXPECT_TRUE(context.load_stats.binary) << shards;
    EXPECT_EQ(context.load_stats.shards, shards);
    EXPECT_EQ(context.frame, mono.frame) << shards << " shards";
    EXPECT_EQ(context.period.begin, mono.period.begin) << shards;
    EXPECT_EQ(context.period.end, mono.period.end) << shards;
    EXPECT_EQ(context.accounting_from, mono.accounting_from) << shards;
    EXPECT_EQ(context.capabilities, mono.capabilities) << shards;
    EXPECT_EQ(context.job_log.size(), mono.job_log.size()) << shards;
    EXPECT_EQ(context.snapshot.records.size(), mono.snapshot.records.size()) << shards;
  }
}

TEST(StudySharded, ReportsByteIdenticalAcrossShardCountsAndWidths) {
  const auto mono = study::DatasetSource{monolithic_dir()}.load();
  const auto shared = registry().available(mono);
  ASSERT_FALSE(shared.empty());

  std::string reference_text;
  std::string reference_json;
  {
    const ThreadsGuard guard{1};
    const auto report = registry().run(mono, shared);
    reference_text = report.text();
    reference_json = report.json();
  }

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                   std::size_t{16}}) {
    const auto context = study::DatasetSource{sharded_dir(shards)}.load();
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      const ThreadsGuard guard{width};
      const auto report = registry().run(context, shared);
      EXPECT_EQ(report.text(), reference_text) << shards << " shards, width " << width;
      EXPECT_EQ(report.json(), reference_json) << shards << " shards, width " << width;
    }
  }
}

TEST(StudySharded, ReshardingALoadedContextRoundTrips) {
  // The titan-convert path: load the monolithic dataset, split it into
  // contiguous shards, and expect the re-merged load byte-identical.
  const auto mono = study::DatasetSource{monolithic_dir()}.load();
  const auto dir = scratch_root() / "resharded_5";
  const auto stats = study::write_sharded_dataset(mono, dir, 5);
  EXPECT_EQ(stats.shards, 5U);
  EXPECT_EQ(stats.events, mono.frame.size());

  const auto context = study::DatasetSource{dir}.load();
  EXPECT_EQ(context.frame, mono.frame);
  const auto shared = registry().available(mono);
  const auto a = registry().run(mono, shared);
  const auto b = registry().run(context, shared);
  EXPECT_EQ(a.text(), b.text());
  EXPECT_EQ(a.json(), b.json());

  EXPECT_THROW((void)study::write_sharded_dataset(mono, dir, 0), std::invalid_argument);
}

TEST(StudySharded, KwayMergeOrdersEqualTimestampsByShardIndex) {
  // Hand-built shards with colliding timestamps: the merge must order
  // equal times by shard index, preserving in-shard order within one
  // shard (shard k holds strictly earlier provisional stream positions
  // than shard k+1).  Node ids encode provenance: shard s writes nodes
  // s*10, s*10+1, ...
  const auto dir = scratch_root() / "collide";
  fs::create_directories(dir);
  const stats::TimeSec t0 = 1000;
  const std::vector<std::vector<stats::TimeSec>> shard_times{
      {t0, t0 + 50, t0 + 50}, {t0, t0 + 50, t0 + 90}, {t0 + 50}};
  for (std::size_t s = 0; s < shard_times.size(); ++s) {
    tdf::TdfDataset data;
    data.period_begin = t0;
    data.period_end = t0 + 100;
    data.accounting_from = t0;
    for (std::size_t i = 0; i < shard_times[s].size(); ++i) {
      data.times.push_back(shard_times[s][i]);
      data.nodes.push_back(static_cast<topology::NodeId>(s * 10 + i));
      data.kinds.push_back(xid::ErrorKind::kDoubleBitError);
      data.structures.push_back(xid::MemoryStructure::kDeviceMemory);
    }
    tdf::write_tdf(data, dir / tdf::shard_file_name(s));
  }

  const auto context = study::DatasetSource{dir}.load();
  const auto& frame = context.frame;
  ASSERT_EQ(frame.size(), 7U);
  const std::vector<topology::NodeId> expected_nodes{
      0,   // t0      shard 0
      10,  // t0      shard 1
      1,   // t0+50   shard 0 (in-shard order preserved...)
      2,   // t0+50   shard 0
      11,  // t0+50   shard 1 (...then the next shard)
      20,  // t0+50   shard 2
      12,  // t0+90   shard 1
  };
  for (std::size_t i = 0; i < expected_nodes.size(); ++i) {
    EXPECT_EQ(frame.nodes()[i], expected_nodes[i]) << "event " << i;
  }
  for (std::size_t i = 1; i < frame.size(); ++i) {
    EXPECT_LE(frame.times()[i - 1], frame.times()[i]) << "event " << i;
  }
}

TEST(StudySharded, SegmentReaderSmallWindowsMatchWholeFileDecode) {
  const auto path = monolithic_dir() / "dataset.tdf";
  IngestReport whole_report{IngestPolicy::kStrict};
  const auto whole = tdf::decode_tdf(tdf::MappedFile{path}.bytes(), "dataset.tdf",
                                     IngestPolicy::kStrict, whole_report);

  IngestReport report{IngestPolicy::kStrict};
  tdf::SegmentReader reader{path, IngestPolicy::kStrict, report, /*window_rows=*/7};
  EXPECT_EQ(reader.event_count(), whole.event_count());
  EXPECT_EQ(reader.period_begin(), whole.period_begin);
  EXPECT_EQ(reader.period_end(), whole.period_end);
  EXPECT_TRUE(reader.has_jobs());
  EXPECT_TRUE(reader.has_smi());

  tdf::TdfDataset streamed;
  tdf::EventWindow window;
  std::size_t windows = 0;
  while (reader.next_window(window) > 0) {
    ++windows;
    EXPECT_LE(window.size(), 7U);
    streamed.times.insert(streamed.times.end(), window.times.begin(), window.times.end());
    streamed.nodes.insert(streamed.nodes.end(), window.nodes.begin(), window.nodes.end());
    streamed.kinds.insert(streamed.kinds.end(), window.kinds.begin(), window.kinds.end());
    streamed.structures.insert(streamed.structures.end(), window.structures.begin(),
                               window.structures.end());
  }
  EXPECT_EQ(reader.rows_decoded(), reader.event_count());
  EXPECT_GE(windows, whole.event_count() / 7);
  EXPECT_EQ(streamed.times, whole.times);
  EXPECT_EQ(streamed.nodes, whole.nodes);
  EXPECT_EQ(streamed.kinds, whole.kinds);
  EXPECT_EQ(streamed.structures, whole.structures);

  std::vector<logsim::JobLogRecord> jobs;
  EXPECT_TRUE(reader.read_jobs(jobs));
  EXPECT_EQ(jobs.size(), whole.jobs.size());
  logsim::SmiSnapshot snapshot;
  EXPECT_TRUE(reader.read_smi(snapshot));
  EXPECT_EQ(snapshot.records.size(), whole.snapshot.records.size());

  EXPECT_THROW((tdf::SegmentReader{path, IngestPolicy::kStrict, report, 0}),
               std::invalid_argument);
}

TEST(StudySharded, CorruptShardNamedInDiagnostic) {
  // Damage in ONE shard container must surface as an IngestError naming
  // that shard's file -- under both policies (event columns are required
  // segments; there is no salvaging a slice of the stream).
  const auto src = sharded_dir(3);
  const auto dir = scratch_root() / "corrupt_shard";
  fs::remove_all(dir);
  fs::copy(src, dir);
  const auto victim = dir / tdf::shard_file_name(1);
  // Flip a byte inside the largest segment's body (a blind file-middle
  // flip could land in unchecksummed alignment padding).
  const auto info = tdf::inspect_tdf(victim);
  const auto largest = std::max_element(
      info.segments.begin(), info.segments.end(),
      [](const auto& a, const auto& b) { return a.length < b.length; });
  ASSERT_NE(largest, info.segments.end());
  ASSERT_GT(largest->length, 0U);
  flip_byte(victim, largest->offset + largest->length / 2);

  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    try {
      (void)study::DatasetSource{dir, policy}.load();
      FAIL() << "corrupt shard must throw";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.file(), tdf::shard_file_name(1));
      EXPECT_NE(std::string{error.what()}.find("dataset.shard-1.tdf"), std::string::npos)
          << error.what();
    }
  }
}

TEST(StudySharded, MissingShardIsFatalUnderBothPolicies) {
  const auto src = sharded_dir(3);
  const auto dir = scratch_root() / "missing_shard";
  fs::remove_all(dir);
  fs::copy(src, dir);
  fs::remove(dir / tdf::shard_file_name(1));

  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    try {
      (void)study::DatasetSource{dir, policy}.load();
      FAIL() << "missing shard must throw";
    } catch (const IngestError& error) {
      // The manifest's presence check (or, without claims, the shard
      // roster walk) must name the missing shard file either way.  A
      // hole in the shard roster is crash-shaped damage, so it carries
      // the dedicated E_PARTIAL_SHARD_SET code rather than generic
      // E_FILE_MISSING.
      EXPECT_EQ(error.code(), TriageCode::kPartialShardSet);
      EXPECT_EQ(error.file(), tdf::shard_file_name(1));
      EXPECT_NE(std::string{error.what()}.find("dataset.shard-1.tdf"), std::string::npos)
          << error.what();
    }
  }
}

TEST(StudySharded, MetaWindowDisagreementNamesTheOddShard) {
  const auto dir = scratch_root() / "window_mismatch";
  fs::create_directories(dir);
  for (std::size_t s = 0; s < 2; ++s) {
    tdf::TdfDataset data;
    data.period_begin = 1000;
    data.period_end = s == 0 ? 2000 : 3000;  // shard 1 disagrees
    data.accounting_from = 1000;
    data.times = {1500};
    data.nodes = {1};
    data.kinds = {xid::ErrorKind::kDoubleBitError};
    data.structures = {xid::MemoryStructure::kDeviceMemory};
    tdf::write_tdf(data, dir / tdf::shard_file_name(s));
  }

  try {
    (void)study::DatasetSource{dir}.load();
    FAIL() << "meta window disagreement must throw";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kTdfSegmentCorrupt);
    EXPECT_EQ(error.file(), tdf::shard_file_name(1));
    EXPECT_NE(std::string{error.what()}.find("disagrees with dataset.shard-0.tdf"),
              std::string::npos)
        << error.what();
  }
}

TEST(StudySharded, EmptyShardedDatasetRejectedWithNoEvents) {
  const auto dir = scratch_root() / "empty_shards";
  fs::create_directories(dir);
  tdf::TdfDataset data;
  data.period_begin = 1000;
  data.period_end = 2000;
  data.accounting_from = 1000;
  tdf::write_tdf(data, dir / tdf::shard_file_name(0));

  try {
    (void)study::DatasetSource{dir}.load();
    FAIL() << "empty sharded dataset must throw";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kNoEvents);
  }
}

TEST(StudySharded, EmptyRosterWithTamperedJobsNamesNoEventsFirst) {
  // No events anywhere, and the job segment's bytes damaged: a strict
  // load names the empty stream before it ever decodes the job table,
  // for a one-container roster (dataset.tdf) and a shard roster alike.
  for (const std::size_t containers : {std::size_t{1}, std::size_t{3}}) {
    const auto dir = scratch_root() / ("empty_tampered_" + std::to_string(containers));
    fs::create_directories(dir);
    for (std::size_t s = 0; s < containers; ++s) {
      tdf::TdfDataset data;
      data.period_begin = 1000;
      data.period_end = 2000;
      data.accounting_from = 1000;
      const bool last = s + 1 == containers;
      if (last) {
        data.has_jobs = true;
        data.jobs.push_back(logsim::JobLogRecord{});
      }
      const auto path =
          dir / (containers == 1 ? std::string{tdf::kTdfFileName} : tdf::shard_file_name(s));
      tdf::write_tdf(data, path);
      if (!last) continue;
      const auto info = tdf::inspect_tdf(path);
      const auto jobs = std::find_if(info.segments.begin(), info.segments.end(),
                                     [](const auto& seg) { return seg.name == "jobs"; });
      ASSERT_NE(jobs, info.segments.end());
      flip_byte(path, jobs->offset);
    }

    try {
      (void)study::DatasetSource{dir}.load();
      FAIL() << "an empty roster must throw";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.code(), TriageCode::kNoEvents) << containers << ": " << error.what();
    }
  }
}

}  // namespace
}  // namespace titan
