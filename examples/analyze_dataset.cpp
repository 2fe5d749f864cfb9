// Analyze an on-disk dataset produced by `generate_dataset` (or any
// source emitting the same formats), using only the on-disk artifacts --
// no simulator state.  Both dataset formats load transparently: text
// logs are parsed, a TDF binary container (dataset.tdf) is mapped and
// decoded.  Loads the dataset into a StudyContext and runs every
// analysis its capabilities support; `--json` emits the structured
// report instead of the rendered text.
//
//   ./build/examples/analyze_dataset [dataset_dir] [--json] [--profile NAME]
//
// --help prints the usage and exits 0; an unknown flag, or --profile
// without a name, prints it and exits 2.
//
// `--profile` asserts which fleet profile the dataset was generated
// under; a recorded disagreement is E_PROFILE_MISMATCH (fatal under the
// default strict ingest policy).  Without it the dataset's recorded
// profile is adopted.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>

#include "profile/fleet_profile.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"

namespace {

int usage(std::FILE* out, int code) {
  std::fprintf(out,
               "usage: analyze_dataset [dataset_dir] [--json] [--profile NAME]\n"
               "profiles: %s\n",
               titan::profile::profile_names().c_str());
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace titan;
  std::filesystem::path dir = "titan_dataset";
  bool json = false;
  const profile::FleetProfile* expected = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      return usage(stdout, 0);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      expected = profile::find_profile(argv[++i]);
      if (expected == nullptr) {
        std::fprintf(stderr, "analyze_dataset: unknown profile '%s' (%s)\n", argv[i],
                     profile::profile_names().c_str());
        return 2;
      }
    } else if (argv[i][0] != '-') {
      dir = argv[i];
    } else {
      return usage(stderr, 2);
    }
  }

  study::StudyContext context;
  try {
    context = study::DatasetSource{dir, ingest::IngestPolicy::kStrict, expected}.load();
  } catch (const std::exception& error) {
    // Point at generate_dataset only when there is no dataset to blame;
    // a damaged one prints its triage error alone.
    const bool missing = study::dataset_layout(dir).kind == study::LayoutKind::kNone;
    std::fprintf(stderr, "%s%s\n", error.what(), missing ? " (run generate_dataset first)" : "");
    return 2;
  }

  const auto& registry = study::AnalysisRegistry::standard();
  const auto report = registry.run_all(context);
  if (json) {
    std::printf("%s\n", report.json().c_str());
    return 0;
  }

  const auto& stats = context.load_stats;
  if (stats.binary && stats.shards > 0) {
    std::printf("dataset.shard-{0..%zu}.tdf: %zu segments, %zu bytes -> %zu events "
                "(sharded streaming load)\n",
                stats.shards - 1, stats.tdf_segments, stats.tdf_bytes,
                context.frame.size());
    std::printf("jobs: %zu records   smi sweep: %zu GPU blocks\n", stats.job_lines,
                stats.smi_blocks);
  } else if (stats.binary) {
    std::printf("dataset.tdf: %zu segments, %zu bytes -> %zu events (binary load)\n",
                stats.tdf_segments, stats.tdf_bytes, context.frame.size());
    std::printf("jobs: %zu records   smi sweep: %zu GPU blocks\n", stats.job_lines,
                stats.smi_blocks);
  } else {
    std::printf("console.log: %zu lines -> %zu events (%zu malformed, %zu unrelated)\n",
                stats.console_lines, context.frame.size(), stats.malformed_lines,
                stats.unrelated_lines);
    std::printf("jobs.log: %zu records (%zu malformed)   smi_sweep.txt: %zu GPU blocks\n",
                stats.job_lines, stats.malformed_job_lines, stats.smi_blocks);
  }
  std::printf("analyses available: %zu of %zu registered\n\n",
              registry.available(context).size(), registry.names().size());
  std::fputs(report.text().c_str(), stdout);
  return 0;
}
