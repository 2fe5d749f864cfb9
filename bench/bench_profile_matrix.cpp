// Profile-matrix bench: the full analysis suite under every built-in
// fleet profile, side by side.  One simulated campaign per profile (same
// seed, same study window), one AnalysisRegistry sweep each, then the
// ComparativeReport headline table -- the cross-fleet study the
// FleetProfile layer exists for.  Prints per-profile stage timings and
// checks that the modern fleets actually exercise their new physics
// (row remapping, NVLink, SDC) while k20x-titan stays the paper's fleet.
//
//   ./build/bench/bench_profile_matrix [--quick] [--json PATH]
//
// --json writes the machine-readable record (the BENCH_profile.json
// trajectory; see scripts/check.sh --bench-json).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "study/comparative.hpp"
#include "study/io.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace titan;

  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_profile_matrix [--quick] [--json PATH]\n");
      return 2;
    }
  }
  const auto base = quick ? core::quick_config(7) : core::default_config();

  bench::print_header("Profile matrix: full analysis suite per fleet profile");

  struct ProfileRun {
    const profile::FleetProfile* fleet;
    double load_ms;
    double sweep_ms;
    std::size_t events;
    std::size_t analyses;
    study::StudyReport report;
  };
  std::vector<ProfileRun> runs;
  for (const auto* fleet : profile::builtin_profiles()) {
    auto config = base;
    core::apply_profile(config, *fleet);

    auto start = std::chrono::steady_clock::now();
    const auto context = study::SimulatedSource{config}.load();
    const double load_ms = ms_since(start);

    start = std::chrono::steady_clock::now();
    auto report = study::AnalysisRegistry::standard().run_all(context);
    const double sweep_ms = ms_since(start);

    std::printf("  %-10s  load %8.1f ms   sweep %8.1f ms   %zu events, %zu analyses\n",
                std::string{fleet->name}.c_str(), load_ms, sweep_ms,
                context.frame.size(), report.results.size());
    runs.push_back({fleet, load_ms, sweep_ms, context.frame.size(),
                    report.results.size(), std::move(report)});
  }

  study::ComparativeReport comparison;
  comparison.period = base.period;
  comparison.seed = base.seed;
  for (auto& run : runs) comparison.columns.push_back({run.fleet, run.report});

  bench::print_header("Comparison");
  bench::print_block(comparison.text());

  bench::print_header("Checks");
  const std::size_t registered = study::AnalysisRegistry::standard().names().size();
  bool ok = true;
  for (const auto& run : runs) {
    ok &= bench::check(std::string{run.fleet->name} + ": every registered analysis ran",
                       run.analyses == registered);
  }
  const auto& k20x_text = runs[0].report.text();
  ok &= bench::check("k20x-titan report mentions page retirement, never row remapping",
                     k20x_text.find("XID63") != std::string::npos &&
                         k20x_text.find("REMAP") == std::string::npos);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const auto& text = runs[i].report.text();
    ok &= bench::check(std::string{runs[i].fleet->name} +
                           ": row remap, NVLink and SDC kinds appear in the report",
                       text.find("REMAP") != std::string::npos &&
                           text.find("XID74") != std::string::npos &&
                           text.find("SDC") != std::string::npos);
    ok &= bench::check(std::string{runs[i].fleet->name} + ": no page-retirement events",
                       text.find("XID63") == std::string::npos);
  }
  ok &= bench::check("comparison table renders one column per profile",
                     comparison.text().find("k20x-titan") != std::string::npos &&
                         comparison.text().find("a100") != std::string::npos &&
                         comparison.text().find("h100") != std::string::npos);

  if (!json_path.empty()) {
    auto profiles = study::JsonValue::array();
    for (const auto& run : runs) {
      profiles.push(study::JsonValue::object()
                        .set("name", run.fleet->name)
                        .set("content_hash", run.fleet->content_hash())
                        .set("events", run.events)
                        .set("analyses", run.analyses)
                        .set("load_ms", run.load_ms)
                        .set("sweep_ms", run.sweep_ms));
    }
    auto doc = study::JsonValue::object();
    doc.set("bench", "profile_matrix");
    doc.set("fixture", study::JsonValue::object()
                           .set("config", quick ? "quick" : "default")
                           .set("seed", base.seed));
    doc.set("profiles", std::move(profiles));
    doc.set("checks", study::JsonValue::object().set("all_green", ok));
    study::write_text(json_path, doc.dump() + "\n");
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  return ok ? 0 : 1;
}
