// The crash-consistency headline proof, test-sized: every kill point of
// each dataset writer is visited with a RunLength kill and the outcome
// must be clean salvage (the directory still loads byte-identically) or
// a *named* triage failure -- never silent corruption -- and rerunning
// the writer (every writer's resume) must converge to the uninterrupted
// bytes.  The writers' begin step is also killed over a committed
// dataset of another layout: the directory holds the old dataset or a
// named failure, never a mix.  The bench variant (bench_faulttest_crash)
// runs the bigger sharded campaign; here the sweeps stay
// quick_config-sized.
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
#include "logsim/smi_text.hpp"
#include "par/pool.hpp"
#include "study/crashtest.hpp"
#include "study/io.hpp"
#include "study/serialize_detail.hpp"
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

/// Every writer's begin step: the intent checkpoint save, then the
/// clearing of the directory.
Census begin_step() { return {{"ckpt/pre-save", 1}, {"study/begin/cleared", 1}}; }

/// generate_sharded_dataset at `shards` shards: begin step (one atomic
/// write), `shards` containers, manifest.
Census generator_census(std::uint64_t shards) {
  auto census = merged(merged(containers(shards), atomic_writes(shards + 2)), begin_step());
  census.insert({{"study/shard/pre-manifest", 1}, {"study/shard/committed", 1}});
  return census;
}

/// The context writers' binary roster (dataset.tdf alone is a roster of
/// one): begin step, `count` containers, manifest.
Census roster_census(std::uint64_t count) {
  auto census = merged(merged(containers(count), atomic_writes(count + 2)), begin_step());
  census.insert({{"study/write/pre-manifest", 1}, {"study/write/committed", 1}});
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
      scratch_root() / "sharded_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  // Every durable-state transition layer.
  expect_census(sweep, generator_census(2), 28, 12);

  // The census scales with the shard count as the table says: 36 hits at
  // 3 shards (a plain reference run; the sweep itself stays at 2).
  FaultTestInit(FaultConfig{});
  study::generate_sharded_dataset(config, 3, scratch_root() / "sharded_census_3");
  const auto three = faulttest::fault_test_report();
  EXPECT_EQ(three.total_hits, 36U);
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
  const auto sweep = study::run_runlength_sweep(write, scratch_root() / "text_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  // Begin step, console.log, jobs.log, smi_sweep.txt, manifest.
  auto expected = merged(atomic_writes(5), begin_step());
  expected.insert({{"study/write/artifact", 3},
                   {"study/write/pre-manifest", 1},
                   {"study/write/committed", 1}});
  expect_census(sweep, expected, 27, 9);
}

TEST(FaultTestCrash, MonolithicBinarySweepRerunConverges) {
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto write = [&](const fs::path& dir) {
    study::write_dataset(context, dir, study::DatasetFormat::kBinary);
  };
  const auto sweep =
      study::run_runlength_sweep(write, scratch_root() / "binary_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  // dataset.tdf goes through the container writer: the TDF encode
  // pipeline's own sites (tdf/segments-encoded, ...) and the container
  // writer's (study/shard/encoded, ...) are on the walked path.
  expect_census(sweep, roster_census(1), 20, 12);
}

TEST(FaultTestCrash, ReshardSweepRerunConverges) {
  // The re-sharding converter shares the container writer with the
  // binary path; rerunning it over any crash state converges.
  const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto write = [&](const fs::path& dir) {
    (void)study::write_sharded_dataset(context, dir, 2);
  };
  const auto sweep =
      study::run_runlength_sweep(write, scratch_root() / "reshard_sweep");
  EXPECT_TRUE(sweep.clean()) << sweep.summary_text();
  expect_census(sweep, roster_census(2), 28, 12);
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
      // then rerun at this width: the finished directory must be
      // byte-identical to the width-1 uninterrupted reference.
      FaultConfig kill;
      kill.mode = FaultMode::kRunLength;
      kill.run_length = total / 2;
      FaultTestInit(kill);
      EXPECT_THROW(study::generate_sharded_dataset(config, shards, dir),
                   faulttest::KillPointError);
      FaultTestInit(FaultConfig{});
      study::generate_sharded_dataset(config, shards, dir);
      const auto diff = study::first_dir_difference(dir, reference);
      EXPECT_FALSE(diff.has_value())
          << shards << " shards, " << threads << " threads: " << *diff;
    }
  }
  FaultTestInit(FaultConfig{});
}

/// What a study sees of `dir` under `policy`: the console, job and smi
/// text rendered from a load.
std::string loaded_text(const fs::path& dir, ingest::IngestPolicy policy) {
  const auto context = study::DatasetSource{dir, policy}.load();
  return study::join_lines(study::detail::console_lines_of(context)) +
         study::join_lines(study::detail::job_lines_of(context)) +
         logsim::smi_sweep_text(context.snapshot);
}

TEST(FaultTestCrash, BeginStepKillOverAnotherLayoutIsOldOrNamed) {
  // Each writer's begin step, killed at each of its kill points over a
  // committed dataset of another layout and another study: the directory
  // loads as the old dataset byte for byte, or fails with a named code
  // (E_CKPT_INCOMPLETE under both policies once the old manifest is
  // gone) -- it never loads a mix.  A rerun then equals a fresh write.
  const auto old_study = study::SimulatedSource{core::quick_config(kSeed + 2)}.load();
  const auto new_study = study::SimulatedSource{core::quick_config(kSeed)}.load();
  const auto text = [](const study::StudyContext& c) -> study::WriteFn {
    return [&c](const fs::path& dir) { study::write_dataset(c, dir); };
  };
  const auto binary = [](const study::StudyContext& c) -> study::WriteFn {
    return [&c](const fs::path& dir) {
      study::write_dataset(c, dir, study::DatasetFormat::kBinary);
    };
  };
  const auto reshard = [](const study::StudyContext& c, std::size_t shards) -> study::WriteFn {
    return [&c, shards](const fs::path& dir) {
      (void)study::write_sharded_dataset(c, dir, shards);
    };
  };
  const auto generate = [](std::uint64_t seed, std::size_t shards) -> study::WriteFn {
    return [seed, shards](const fs::path& dir) {
      (void)study::generate_sharded_dataset(core::quick_config(seed), shards, dir);
    };
  };
  struct Case {
    const char* name;
    study::WriteFn old_write;
    study::WriteFn new_write;
  };
  const Case cases[] = {
      {"shards2_over_text", text(old_study), generate(kSeed, 2)},
      {"text_over_shards3", generate(kSeed + 2, 3), text(new_study)},
      {"binary_over_resharded3", reshard(old_study, 3), binary(new_study)},
      {"resharded2_over_binary", binary(old_study), reshard(new_study, 2)},
  };
  // The begin step's hits come first in every writer: the checkpoint
  // save's own site and atomic-write stages, then the clearing.
  const std::vector<std::string> begin_sites = {
      "ckpt/pre-save",        "io/atomic/pre-tmp",     "io/atomic/post-tmp",
      "io/atomic/pre-rename", "io/atomic/post-rename", "study/begin/cleared"};
  const auto root = scratch_root() / "begin_kill";
  for (const auto& c : cases) {
    const auto old_dir = root / (std::string{c.name} + "_old");
    const auto fresh = root / (std::string{c.name} + "_fresh");
    c.old_write(old_dir);
    c.new_write(fresh);
    const auto old_text = loaded_text(old_dir, ingest::IngestPolicy::kStrict);

    for (std::size_t k = 1; k <= begin_sites.size(); ++k) {
      const auto where = std::string{c.name} + " kill " + std::to_string(k);
      const auto dir = root / (std::string{c.name} + "_kill");
      fs::remove_all(dir);
      fs::copy(old_dir, dir);
      FaultConfig kill;
      kill.mode = FaultMode::kRunLength;
      kill.run_length = k;
      FaultTestInit(kill);
      std::string site;
      try {
        c.new_write(dir);
      } catch (const faulttest::KillPointError& error) {
        site = error.site();
      }
      FaultTestInit(FaultConfig{});
      EXPECT_EQ(site, begin_sites[k - 1]) << where;

      const bool committed = fs::exists(dir / "manifest.txt");
      for (const auto policy : {ingest::IngestPolicy::kStrict, ingest::IngestPolicy::kSalvage}) {
        // Probe a copy: a salvage load quarantines leftovers.
        const auto probe = root / "probe";
        fs::remove_all(probe);
        fs::copy(dir, probe);
        try {
          EXPECT_EQ(loaded_text(probe, policy), old_text) << where << ": loads a mix";
          EXPECT_TRUE(committed) << where << ": loads without a manifest";
        } catch (const ingest::IngestError& error) {
          // Named by construction; without the old manifest, the name is
          // the interrupted write's.
          if (!committed) {
            EXPECT_EQ(error.code(), ingest::TriageCode::kCkptIncomplete) << where;
          }
        }
      }

      c.new_write(dir);
      const auto diff = study::first_dir_difference(dir, fresh);
      EXPECT_FALSE(diff.has_value()) << where << ": " << *diff;
    }
  }
}

TEST(FaultTestCrash, RerunOverACommittedDirectoryEqualsAFreshWrite) {
  // A committed seed-29 roster of 3 shards, overwritten by a rerun with
  // another seed and another shard count: the directory must hold
  // exactly what a fresh write of the new arguments holds -- the old
  // roster's third shard included, which the new manifest never claims.
  const auto config = core::quick_config(kSeed + 2);
  const auto dir = scratch_root() / "rerun_over_committed";
  study::generate_sharded_dataset(core::quick_config(kSeed), 3, dir);
  const auto stats = study::generate_sharded_dataset(config, 2, dir);
  EXPECT_EQ(stats.shards, 2U);
  const auto fresh = scratch_root() / "rerun_over_committed_fresh";
  const auto fresh_stats = study::generate_sharded_dataset(config, 2, fresh);
  EXPECT_EQ(stats.events, fresh_stats.events);
  const auto diff = study::first_dir_difference(dir, fresh);
  EXPECT_FALSE(diff.has_value()) << *diff;

  // The same rerun with the same arguments again is a no-op on the bytes.
  (void)study::generate_sharded_dataset(config, 2, dir);
  EXPECT_TRUE(study::dirs_identical(dir, fresh));
}

}  // namespace
}  // namespace titan
