// Campaign scale bench: sharded, memory-bounded generation vs the
// unsharded in-memory path, at 1x / 4x / 16x Titan scale.
//
// One "Titan" is the full default_config campaign: 18,688 K20X cards over
// the Jun'13-Feb'15 study window.  Nx scale simulates N facility replicas
// (seeds seed+0 .. seed+N-1), so 16x covers 299,008 cards -- the fleet
// sizes of the follow-on papers in PAPERS.md that no longer fit one
// in-memory event vector.  Every replica campaign runs in its own forked
// worker (the shape of a real fleet pipeline: one process per facility
// slice), so the kernel's ru_maxrss is an honest, isolated measurement;
// a phase's "peak MiB" is the maximum over its workers:
//
//   * unsharded_Nx  SimulatedSource::load + write_dataset(binary) per
//                   replica: the full-materialization path (ground-truth
//                   events, SBE strikes, console text, frames, one
//                   StudyContext resident per campaign).
//   * sharded_Nx    generate_sharded_dataset per replica: phases A-C
//                   planned once per replica, events spilled shard by
//                   shard, never a full stream resident.
//
// Replica workload sizes vary by seed (heavy-tailed job scales), so the
// two 16x phases run the SAME 16 seeds and the verdict compares their
// worker maxima.  Acceptance (ROADMAP "sharded fault campaigns at
// modern scale"): every sharded 16x worker must finish under the fixed
// budget below, the unsharded path must NOT manage that across the same
// 16 replicas, and the sharded and unsharded 1x datasets must load to
// byte-identical study reports.
//
//   ./build/bench/bench_campaign_scale [--quick] [--shards N] [--json PATH]
//                                      [--dir PATH]
//
// --json writes the machine-readable record (the BENCH_campaign.json
// trajectory; see scripts/check.sh --bench-json).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "study/io.hpp"
#include "study/json.hpp"
#include "study/registry.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"
#include "topology/machine.hpp"

namespace {

namespace fs = std::filesystem;
using namespace titan;

/// Peak-RSS budget every sharded 16x replica worker must stay under
/// (and the unsharded path demonstrably cannot meet across the same 16
/// seeds).  Chosen between the two measured 16x worker maxima -- ~165
/// MiB sharded vs ~266 MiB unsharded on the default seeds (4 cores,
/// RelWithDebInfo) -- leaving >25% margin on both sides.  Job allocations
/// are runs of the allocator's search order, so the workload floor both
/// paths carry (job records plus the JobTrace index) is tens of MiB; the
/// gap is the unsharded path's resident event stream and frame.
constexpr double kRssBudgetMiB = 210.0;

/// What one forked phase reports back (written to a stats file by the
/// child, read by the parent after wait4).
struct PhaseStats {
  double node_hours = 0.0;
  std::size_t cards = 0;
  std::size_t events = 0;
  std::size_t dataset_bytes = 0;
};

struct PhaseResult {
  std::string name;
  PhaseStats stats;
  double wall_ms = 0.0;
  double max_rss_mib = 0.0;
  bool ok = false;
};

std::uintmax_t tree_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double node_hours_of(const core::FacilityConfig& config) {
  return static_cast<double>(topology::kComputeNodes) *
         static_cast<double>(config.period.duration()) / 3600.0;
}

/// Run one worker (a replica campaign) in a forked child and measure its
/// peak RSS with wait4.  The parent must not have started any thread
/// pool before forking (par::parallel_for lazily initializes per
/// process; children get their own), which is why every worker forks
/// before any dataset is loaded in the parent.
bool run_worker(const std::string& label, const fs::path& stats_file,
                const std::function<PhaseStats()>& body, PhaseStats& stats_out,
                double& rss_mib_out) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    int code = 1;
    try {
      const PhaseStats stats = body();
      char line[256];
      std::snprintf(line, sizeof line, "node_hours=%.3f\ncards=%zu\nevents=%zu\nbytes=%zu\n",
                    stats.node_hours, stats.cards, stats.events, stats.dataset_bytes);
      study::write_text(stats_file, line);
      code = 0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "[titanrel] worker %s failed: %s\n", label.c_str(), error.what());
    }
    _exit(code);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("wait4");
    return false;
  }
  rss_mib_out = static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  const std::string text = study::read_all(stats_file);
  return std::sscanf(text.c_str(), "node_hours=%lf\ncards=%zu\nevents=%zu\nbytes=%zu",
                     &stats_out.node_hours, &stats_out.cards, &stats_out.events,
                     &stats_out.dataset_bytes) == 4;
}

/// Run a phase of `workers` sequential replica campaigns: stats sum,
/// wall time covers the whole sequence, peak RSS is the worker maximum.
PhaseResult run_phase(const std::string& name, const fs::path& stats_file,
                      std::size_t workers,
                      const std::function<PhaseStats(std::size_t)>& body) {
  PhaseResult result;
  result.name = name;
  std::fprintf(stderr, "[titanrel] phase %s (%zu worker%s)...\n", name.c_str(), workers,
               workers == 1 ? "" : "s");
  const auto begin = std::chrono::steady_clock::now();
  result.ok = true;
  for (std::size_t w = 0; w < workers; ++w) {
    PhaseStats stats;
    double rss = 0.0;
    const auto label = name + "/" + std::to_string(w);
    if (!run_worker(label, stats_file, [&] { return body(w); }, stats, rss)) {
      result.ok = false;
      break;
    }
    result.stats.node_hours += stats.node_hours;
    result.stats.cards += stats.cards;
    result.stats.events += stats.events;
    result.stats.dataset_bytes += stats.dataset_bytes;
    result.max_rss_mib = std::max(result.max_rss_mib, rss);
  }
  const auto end = std::chrono::steady_clock::now();
  result.wall_ms = std::chrono::duration<double, std::milli>(end - begin).count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t shards = 16;
  std::string json_path;
  fs::path root = fs::temp_directory_path() / "titanrel_bench_campaign";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--dir" && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_campaign_scale [--quick] [--shards N] [--json PATH] "
                   "[--dir PATH]\n");
      return 2;
    }
  }
  if (shards == 0) shards = 1;

  bench::print_header("Campaign scale: sharded out-of-core generation vs in-memory");

  const std::uint64_t seed = quick ? 29 : core::default_config().seed;
  const auto config_of = [&](std::uint64_t replica) {
    return quick ? core::quick_config(seed + replica) : core::default_config(seed + replica);
  };

  fs::create_directories(root);
  const fs::path stats_file = root / "phase.stats";
  const fs::path unsharded_dir = root / "unsharded_1x";
  const auto sharded_dir = [&](std::size_t scale, std::size_t replica) {
    return root / ("sharded_" + std::to_string(scale) + "x") /
           ("replica-" + std::to_string(replica));
  };

  // One unsharded replica campaign: full materialization + monolithic
  // write.  Replica 0 (the 1x baseline) keeps its dataset on disk for
  // the byte-identity check; the other replicas only need the footprint
  // measurement, so they clean up after themselves.
  const auto unsharded_worker = [&](std::size_t r, const fs::path& dir, bool keep) {
    const auto config = config_of(r);
    const study::SimulatedSource source{config};
    const auto context = source.load();
    study::write_dataset(context, dir, study::DatasetFormat::kBinary);
    PhaseStats stats;
    stats.node_hours = node_hours_of(config);
    stats.cards = static_cast<std::size_t>(topology::kComputeNodes);
    stats.events = context.frame.size();
    stats.dataset_bytes = tree_bytes(dir);
    if (!keep) fs::remove_all(dir);
    return stats;
  };

  const PhaseResult unsharded = run_phase("unsharded_1x", stats_file, 1, [&](std::size_t) {
    return unsharded_worker(0, unsharded_dir, /*keep=*/true);
  });

  // The same 16 replica seeds through the unsharded path: workload sizes
  // vary by seed, so this is the honest apples-to-apples ceiling the
  // sharded 16x phase below is judged against.
  const PhaseResult unsharded_16x =
      run_phase("unsharded_16x", stats_file, 16, [&](std::size_t r) {
        return unsharded_worker(r, root / "unsharded_16x" / ("replica-" + std::to_string(r)),
                                /*keep=*/false);
      });

  // Sharded generation at 1x / 4x / 16x Titan (N facility replicas).
  std::vector<PhaseResult> scales;
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    const std::string name = "sharded_" + std::to_string(replicas) + "x";
    scales.push_back(run_phase(name, stats_file, replicas, [&](std::size_t r) {
      const auto config = config_of(r);
      const auto write =
          study::generate_sharded_dataset(config, shards, sharded_dir(replicas, r));
      PhaseStats stats;
      stats.node_hours = node_hours_of(config);
      stats.cards = static_cast<std::size_t>(topology::kComputeNodes);
      stats.events = write.events;
      stats.dataset_bytes = write.bytes;
      return stats;
    }));
  }

  // All forks done; the parent may now allocate freely.  Verify the 1x
  // sharded dataset loads byte-identical to the unsharded one.
  bool identical = false;
  if (unsharded.ok && scales[0].ok) {
    const auto& registry = study::AnalysisRegistry::standard();
    const auto mono = study::DatasetSource{unsharded_dir}.load();
    const auto shard = study::DatasetSource{sharded_dir(1, 0)}.load();
    const auto mono_report = registry.run_all(mono);
    const auto shard_report = registry.run_all(shard);
    identical = mono_report.text() == shard_report.text() &&
                mono_report.json() == shard_report.json();
  }

  std::printf("fleet         : %d cards per Titan replica, %zu shards per replica%s\n",
              topology::kComputeNodes, shards, quick ? " (quick window)" : "");
  std::printf("rss budget    : %.0f MiB (fixed; documented in this bench's header)\n\n",
              kRssBudgetMiB);
  std::printf("%-14s %10s %12s %12s %14s %12s\n", "phase", "cards", "events", "wall s",
              "node-hours/s", "peak MiB");
  std::vector<const PhaseResult*> all{&unsharded, &unsharded_16x};
  for (const auto& scale : scales) all.push_back(&scale);
  for (const PhaseResult* phase : all) {
    if (!phase->ok) {
      std::printf("%-14s FAILED\n", phase->name.c_str());
      continue;
    }
    std::printf("%-14s %10zu %12zu %12.2f %14.0f %12.1f\n", phase->name.c_str(),
                phase->stats.cards, phase->stats.events, phase->wall_ms / 1000.0,
                phase->stats.node_hours / (phase->wall_ms / 1000.0), phase->max_rss_mib);
  }

  const PhaseResult& sharded_16x = scales.back();
  std::printf("\n");
  bool ok = true;
  ok &= bench::check("all phases completed", unsharded.ok && unsharded_16x.ok &&
                                                 scales[0].ok && scales[1].ok && sharded_16x.ok);
  ok &= bench::check("sharded 16x Titan covers >= 299,008 cards",
                     sharded_16x.stats.cards >= 299008);
  ok &= bench::check("sharded 16x: every replica worker under the fixed budget",
                     sharded_16x.ok && sharded_16x.max_rss_mib < kRssBudgetMiB);
  ok &= bench::check("unsharded 16x: peak replica worker busts the budget",
                     unsharded_16x.ok && unsharded_16x.max_rss_mib > kRssBudgetMiB);
  ok &= bench::check("sharded and unsharded 1x reports byte-identical", identical);

  if (!json_path.empty()) {
    auto doc = study::JsonValue::object();
    doc.set("bench", "campaign_scale");
    doc.set("config", quick ? "quick" : "default");
    doc.set("seed", seed);
    doc.set("shards_per_replica", shards);
    doc.set("rss_budget_mib", kRssBudgetMiB);
    auto phases = study::JsonValue::array();
    for (const PhaseResult* phase : all) {
      phases.push(study::JsonValue::object()
                      .set("name", phase->name)
                      .set("ok", phase->ok)
                      .set("cards", phase->stats.cards)
                      .set("events", phase->stats.events)
                      .set("dataset_bytes", phase->stats.dataset_bytes)
                      .set("node_hours", phase->stats.node_hours)
                      .set("wall_ms", phase->wall_ms)
                      .set("node_hours_per_sec",
                           phase->stats.node_hours / (phase->wall_ms / 1000.0))
                      .set("max_rss_mib", phase->max_rss_mib));
    }
    doc.set("phases", std::move(phases));
    doc.set("checks",
            study::JsonValue::object()
                .set("sharded_16x_under_budget",
                     sharded_16x.ok && sharded_16x.max_rss_mib < kRssBudgetMiB)
                .set("unsharded_16x_over_budget",
                     unsharded_16x.ok && unsharded_16x.max_rss_mib > kRssBudgetMiB)
                .set("reports_identical", identical));
    study::write_text(json_path, doc.dump() + "\n");
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  fs::remove_all(root);
  return ok ? 0 : 1;
}
