// Generate an on-disk study dataset: the artifacts a reliability study
// starts from, either as text logs (console log, job accounting log,
// nvidia-smi sweep, manifest with the study window) or as the TDF binary
// container (dataset.tdf + manifest).  With --shards N the campaign is
// generated shard by shard through the out-of-core driver and written as
// N binary containers (dataset.shard-0.tdf ...) -- the full event stream
// is never resident, so this path scales to campaigns run_study cannot
// hold.  `analyze_dataset` consumes any layout without any access to the
// simulator -- the same arms-length position the paper's analysts were
// in.
//
// The writer owns its output directory: it clears the files of any
// earlier dataset there, so a generation interrupted mid-write (the
// study.ckpt checkpoint is still in the directory) is finished by
// running the same command again.  Setting TITANREL_FAULTTEST (e.g.
// `runlength,n=7,hard`) arms the crash kill points for fault-injection
// runs.
//
//   ./build/examples/generate_dataset [output_dir] [seed] [--format text|binary]
//                                     [--shards N] [--profile NAME]
//
// --help prints the usage and exits 0; an unknown flag, or a flag missing
// its value, prints it and exits 2 without writing anything.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <vector>

#include "faulttest/faulttest.hpp"
#include "profile/fleet_profile.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"

namespace {

int usage(std::FILE* out, int code) {
  std::fprintf(out,
               "usage: generate_dataset [output_dir] [seed] [--format text|binary] "
               "[--shards N] [--profile NAME]\n"
               "profiles: %s\n",
               titan::profile::profile_names().c_str());
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace titan;
  if (faulttest::fault_test_init_from_env()) {
    std::fprintf(stderr, "generate_dataset: fault injection armed (TITANREL_FAULTTEST, "
                         "mode %s)\n",
                 std::string{faulttest::mode_name(faulttest::fault_mode())}.c_str());
  }
  auto format = study::DatasetFormat::kText;
  bool have_format = false;
  std::size_t shards = 0;
  const profile::FleetProfile* fleet = &profile::k20x_titan();
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return usage(stdout, 0);
    } else if (arg == "--profile" && i + 1 < argc) {
      fleet = profile::find_profile(argv[++i]);
      if (fleet == nullptr) {
        std::fprintf(stderr, "generate_dataset: unknown profile '%s' (%s)\n", argv[i],
                     profile::profile_names().c_str());
        return 2;
      }
    } else if (arg == "--format" && i + 1 < argc) {
      const std::string_view value = argv[++i];
      have_format = true;
      if (value == "text") {
        format = study::DatasetFormat::kText;
      } else if (value == "binary") {
        format = study::DatasetFormat::kBinary;
      } else {
        std::fprintf(stderr, "generate_dataset: unknown format '%s' (text|binary)\n",
                     argv[i]);
        return 2;
      }
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (shards == 0) {
        std::fprintf(stderr, "generate_dataset: --shards needs a positive count\n");
        return 2;
      }
    } else if (!arg.starts_with("-")) {
      positional.push_back(argv[i]);
    } else {
      // An unknown flag, or a known one missing its value: never a
      // directory name.
      return usage(stderr, 2);
    }
  }
  if (shards > 0 && have_format && format == study::DatasetFormat::kText) {
    std::fprintf(stderr, "generate_dataset: --shards writes binary containers; "
                         "--format text makes no sense with it\n");
    return 2;
  }
  const std::filesystem::path dir = !positional.empty() ? positional[0] : "titan_dataset";
  const std::uint64_t seed =
      positional.size() > 1 ? std::strtoull(positional[1], nullptr, 10) : 29;

  if (shards > 0) {
    std::printf("Simulating a quick campaign (seed %llu, profile %s), %zu shards "
                "out-of-core...\n",
                static_cast<unsigned long long>(seed), std::string{fleet->name}.c_str(),
                shards);
    const auto stats =
        study::generate_sharded_dataset(core::quick_config(seed, *fleet), shards, dir);
    std::printf("\nWrote sharded dataset to %s/\n", dir.string().c_str());
    std::printf("  dataset.shard-{0..%zu}.tdf  %zu events total, %zu in the largest shard\n",
                stats.shards - 1, stats.events, stats.peak_shard_events);
    std::printf("  last shard also carries %zu jobs, %zu GPU blocks\n", stats.jobs,
                stats.smi_blocks);
    std::printf("  manifest.txt   study window + `shards %zu` + content checksums\n",
                stats.shards);
    std::printf("\nInspect: ./build/tools/titan-convert --info %s\n", dir.string().c_str());
    std::printf("Next:    ./build/examples/analyze_dataset %s\n", dir.string().c_str());
    return 0;
  }

  std::printf("Simulating a quick campaign (seed %llu, profile %s)...\n",
              static_cast<unsigned long long>(seed), std::string{fleet->name}.c_str());
  const study::SimulatedSource source{core::quick_config(seed, *fleet)};
  const auto context = source.load();
  study::write_dataset(context, dir, format);

  std::printf("\nWrote dataset to %s/\n", dir.string().c_str());
  if (format == study::DatasetFormat::kBinary) {
    std::printf("  dataset.tdf    %zu events, %zu jobs, %zu GPU blocks (binary columns)\n",
                context.frame.size(), context.load_stats.job_lines,
                context.load_stats.smi_blocks);
    std::printf("  manifest.txt   study window + content checksums\n");
    std::printf("\nInspect: ./build/tools/titan-convert --info %s\n", dir.string().c_str());
  } else {
    std::printf("  console.log    %zu lines (SMW critical events)\n",
                context.load_stats.console_lines);
    std::printf("  jobs.log       %zu records (batch accounting)\n",
                context.load_stats.job_lines);
    std::printf("  smi_sweep.txt  %zu GPU blocks (end-of-study nvidia-smi -q)\n",
                context.load_stats.smi_blocks);
    std::printf("  manifest.txt   study window + retirement accounting cutoff\n");
  }
  std::printf("\nNext: ./build/examples/analyze_dataset %s\n", dir.string().c_str());
  return 0;
}
