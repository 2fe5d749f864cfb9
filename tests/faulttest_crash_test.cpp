// The crash-consistency headline proof, test-sized: every kill point of
// each dataset writer is visited with a RunLength kill and the outcome
// must be clean salvage (the directory still loads byte-identically) or
// a *named* triage failure -- never silent corruption -- and resuming
// (or rerunning) the writer must converge to the uninterrupted bytes.
// The bench variant (bench_faulttest_crash) runs the bigger sharded
// campaign; here the sweeps stay quick_config-sized.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/facility.hpp"
#include "faulttest/faulttest.hpp"
#include "ingest/triage.hpp"
#include "par/pool.hpp"
#include "study/crashtest.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using faulttest::FaultConfig;
using faulttest::FaultMode;
using faulttest::FaultTestInit;

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

fs::path scratch_root() {
  static const fs::path root = [] {
    auto dir = fs::temp_directory_path() /
               ("titanrel_faulttest_crash_" + std::to_string(::getpid()));
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

/// Kill-point site -> hits, as a reference run counts them.
using Census = std::map<std::string, std::uint64_t>;

Census census_of(const std::vector<faulttest::SiteHits>& sites) {
  Census census;
  for (const auto& s : sites) census[s.site] = s.hits;
  return census;
}

/// Hits of the four atomic-write stages when `writes` atomic writes ran.
Census atomic_writes(std::uint64_t writes) {
  return {{"io/atomic/pre-tmp", writes},
          {"io/atomic/post-tmp", writes},
          {"io/atomic/pre-rename", writes},
          {"io/atomic/post-rename", writes}};
}

Census merged(Census a, const Census& b) {
  a.insert(b.begin(), b.end());
  return a;
}

/// `count` containers through the container writer: encode, seal, write.
Census containers(std::uint64_t count) {
  return {{"tdf/segments-encoded", count},
          {"tdf/footer-encoded", count},
          {"study/shard/encoded", count},
          {"study/shard/sealed", count}};
}

/// generate_sharded_dataset at `shards` shards: the checkpoint is saved
/// once up front and once per sealed shard.
Census generator_census(std::uint64_t shards) {
  auto census = merged(containers(shards), atomic_writes(2 * shards + 2));
  census.insert({{"ckpt/pre-save", shards + 1},
                 {"study/shard/checkpoint", shards},
                 {"study/shard/pre-manifest", 1},
                 {"study/shard/committed", 1}});
  return census;
}

/// The context writers' binary roster (dataset.tdf alone is a roster of
/// one): intent, `count` containers, manifest.
Census roster_census(std::uint64_t count) {
  auto census = merged(containers(count), atomic_writes(count + 2));
  census.insert({{"ckpt/pre-save", 1},
                 {"study/write/pre-manifest", 1},
                 {"study/write/committed", 1}});
  return census;
}

/// The reference run's census is exactly `expected`, which totals `hits`
/// over `sites` sites.
void expect_census(const study::SweepResult& sweep, const Census& expected,
                   std::uint64_t hits, std::size_t sites) {
  std::uint64_t total = 0;
  for (const auto& [site, n] : expected) total += n;
  ASSERT_EQ(total, hits);
  ASSERT_EQ(expected.size(), sites);
  // Sweep count == site census count: every hit the reference run
  // counted was killed exactly once.
  EXPECT_EQ(sweep.kills.size(), sweep.total_points);
  EXPECT_EQ(sweep.total_points, hits) << sweep.summary_text();
  // The full table: a lost, renamed or doubled kill point shows here.
  EXPECT_EQ(census_of(sweep.sites), expected) << sweep.summary_text();
}

TEST(FaultTestCrash, ShardedSweepIsSalvageOrNamedNeverSilent) {
  const auto config = core::quick_config(kSeed);
  const auto sweep = study::run_runlength_sweep(
      [&](const fs::path& dir) { study::generate_sharded_dataset(config, 2, dir); },
      [&](const fs::path& dir) {
        study::generate_sharded_dataset(config, 2, dir, /*resume=*/true);
      },
      scratch_root() / "sharded_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  // Every durable-state transition layer.
  expect_census(sweep, generator_census(2), 39, 12);

  // The census scales with the shard count as the table says: 53 hits at
  // 3 shards (a plain reference run; the sweep itself stays at 2).
  FaultTestInit(FaultConfig{});
  study::generate_sharded_dataset(config, 3, scratch_root() / "sharded_census_3");
  const auto three = faulttest::fault_test_report();
  EXPECT_EQ(three.total_hits, 53U);
  EXPECT_EQ(census_of(three.sites), generator_census(3)) << three.summary_text();
  EXPECT_EQ(three.sites.size(), 12U);

  // And the named-failure taxonomy must actually fire: a mid-write kill
  // leaves ckpt-without-manifest state, a post-tmp kill leaves an orphan.
  EXPECT_GT(sweep.code_counts.count("E_CKPT_INCOMPLETE"), 0U) << sweep.summary_text();
  EXPECT_GT(sweep.code_counts.count("E_ORPHAN_TMP"), 0U) << sweep.summary_text();
}

TEST(FaultTestCrash, MonolithicTextSweepRerunConverges) {
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto write = [&](const fs::path& dir) {
    study::write_dataset(context, dir, study::DatasetFormat::kText);
  };
  // The monolithic writer "resumes" by rerunning: every artifact is
  // rewritten idempotently over the crash state.
  const auto sweep =
      study::run_runlength_sweep(write, write, scratch_root() / "text_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  // Intent, console.log, jobs.log, smi_sweep.txt, manifest.
  auto expected = atomic_writes(5);
  expected.insert({{"ckpt/pre-save", 1},
                   {"study/write/artifact", 3},
                   {"study/write/pre-manifest", 1},
                   {"study/write/committed", 1}});
  expect_census(sweep, expected, 26, 8);
}

TEST(FaultTestCrash, MonolithicBinarySweepRerunConverges) {
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto write = [&](const fs::path& dir) {
    study::write_dataset(context, dir, study::DatasetFormat::kBinary);
  };
  const auto sweep =
      study::run_runlength_sweep(write, write, scratch_root() / "binary_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  // dataset.tdf goes through the container writer: the TDF encode
  // pipeline's own sites (tdf/segments-encoded, ...) and the container
  // writer's (study/shard/encoded, ...) are on the walked path.
  expect_census(sweep, roster_census(1), 19, 11);
}

TEST(FaultTestCrash, ReshardSweepRerunConverges) {
  // The re-sharding converter shares the container writer with the
  // binary path; rerunning it over any crash state converges.
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto write = [&](const fs::path& dir) {
    (void)study::write_sharded_dataset(context, dir, 2);
  };
  const auto sweep =
      study::run_runlength_sweep(write, write, scratch_root() / "reshard_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  expect_census(sweep, roster_census(2), 27, 11);
  EXPECT_GT(sweep.code_counts.count("E_CKPT_INCOMPLETE"), 0U) << sweep.summary_text();
}

TEST(FaultTestCrash, InterruptedResumeIsByteIdenticalAcrossShardsAndWidths) {
  const auto config = core::quick_config(kSeed);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{5}}) {
    // Kill-free reference (width 1), counting the run's kill points.
    const auto reference =
        scratch_root() / ("resume_ref_" + std::to_string(shards));
    fs::remove_all(reference);
    FaultTestInit(FaultConfig{});
    {
      const ThreadsGuard guard{1};
      study::generate_sharded_dataset(config, shards, reference);
    }
    const auto total = faulttest::fault_test_report().total_hits;
    ASSERT_GT(total, 2U);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const ThreadsGuard guard{threads};
      const auto dir = scratch_root() / ("resume_" + std::to_string(shards) + "_" +
                                         std::to_string(threads));
      fs::remove_all(dir);
      // Kill mid-run (after some shards sealed, before the manifest),
      // then resume at this width: the finished directory must be
      // byte-identical to the width-1 uninterrupted reference.
      FaultConfig kill;
      kill.mode = FaultMode::kRunLength;
      kill.run_length = total / 2;
      FaultTestInit(kill);
      EXPECT_THROW(study::generate_sharded_dataset(config, shards, dir),
                   faulttest::KillPointError);
      FaultTestInit(FaultConfig{});
      study::generate_sharded_dataset(config, shards, dir, /*resume=*/true);
      const auto diff = study::first_dir_difference(dir, reference);
      EXPECT_FALSE(diff.has_value())
          << shards << " shards, " << threads << " threads: " << *diff;
    }
  }
  FaultTestInit(FaultConfig{});
}

TEST(FaultTestCrash, ResumeOfACommittedDirectoryIsANoOp) {
  const auto config = core::quick_config(kSeed);
  const auto dir = scratch_root() / "committed_noop";
  const auto stats = study::generate_sharded_dataset(config, 2, dir);
  const auto again = study::generate_sharded_dataset(config, 2, dir, /*resume=*/true);
  EXPECT_EQ(again.shards, stats.shards);
  const auto reference = scratch_root() / "committed_noop_ref";
  study::generate_sharded_dataset(config, 2, reference);
  EXPECT_TRUE(study::dirs_identical(dir, reference));
}

}  // namespace
}  // namespace titan
