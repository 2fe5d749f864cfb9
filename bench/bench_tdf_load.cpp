// Dataset load-path benchmark: text artifacts vs the TDF binary container.
//
// Writes the same simulated campaign as a text dataset and as a binary
// dataset, then times DatasetSource::load (parse vs mmap+decode) and the
// full registry sweep over each.  The acceptance criterion from the
// ROADMAP's binary-format item: binary load >= 5x faster than text, with
// byte-identical StudyReports from both paths.
//
//   ./build/bench/bench_tdf_load [--quick] [--reps N] [--json PATH] [--dir PATH]
//
// --json writes the machine-readable record (the BENCH_dataset.json
// trajectory; see scripts/check.sh --bench-json).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench/common.hpp"
#include "study/io.hpp"
#include "study/json.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace {

namespace fs = std::filesystem;
using namespace titan;

/// Milliseconds of one call, measured with a steady clock.
template <typename Fn>
double time_ms(const Fn& fn) {
  const auto begin = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// Best-of-N wall time of `fn` (minimum is the least noisy estimator for
/// a cold-cache-free comparison; every rep does the full load).
template <typename Fn>
double best_of(int reps, const Fn& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const double ms = time_ms(fn);
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

std::uintmax_t dir_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int reps = 5;
  std::string json_path;
  fs::path root = fs::temp_directory_path() / "titanrel_bench_tdf";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--dir" && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_tdf_load [--quick] [--reps N] [--json PATH] [--dir PATH]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  bench::print_header("Dataset load path: text artifacts vs TDF binary container");

  const auto config = quick ? core::quick_config(29) : core::default_config();
  std::fprintf(stderr, "[titanrel] simulating fixture campaign (seed %llu%s)...\n",
               static_cast<unsigned long long>(config.seed), quick ? ", quick" : "");
  const study::SimulatedSource simulated{config};
  const auto context = simulated.load();

  const fs::path text_dir = root / "text";
  const fs::path binary_dir = root / "binary";
  study::write_dataset(context, text_dir, study::DatasetFormat::kText);
  study::write_dataset(context, binary_dir, study::DatasetFormat::kBinary);

  const auto text_bytes = dir_bytes(text_dir);
  const auto binary_bytes = dir_bytes(binary_dir);
  std::printf("fixture       : %zu events, %zu jobs, %zu smi blocks\n", context.frame.size(),
              context.load_stats.job_lines, context.load_stats.smi_blocks);
  std::printf("text dataset  : %llu bytes\n", static_cast<unsigned long long>(text_bytes));
  std::printf("binary dataset: %llu bytes (%.2fx smaller)\n",
              static_cast<unsigned long long>(binary_bytes),
              binary_bytes == 0 ? 0.0
                                : static_cast<double>(text_bytes) / static_cast<double>(binary_bytes));

  const study::DatasetSource text_source{text_dir};
  const study::DatasetSource binary_source{binary_dir};

  // Load timings (best of N full loads each).
  const double text_load_ms = best_of(reps, [&] { (void)text_source.load(); });
  const double binary_load_ms = best_of(reps, [&] { (void)binary_source.load(); });
  const double speedup = binary_load_ms > 0.0 ? text_load_ms / binary_load_ms : 0.0;
  std::printf("\nload (best of %d)\n", reps);
  std::printf("  text        : %10.2f ms\n", text_load_ms);
  std::printf("  binary      : %10.2f ms\n", binary_load_ms);
  std::printf("  speedup     : %10.2fx\n", speedup);

  // Full registry sweep over each loaded context, plus report equivalence.
  const auto& registry = study::AnalysisRegistry::standard();
  const auto text_context = text_source.load();
  const auto binary_context = binary_source.load();
  study::StudyReport text_report;
  study::StudyReport binary_report;
  const double text_sweep_ms = time_ms([&] { text_report = registry.run_all(text_context); });
  const double binary_sweep_ms =
      time_ms([&] { binary_report = registry.run_all(binary_context); });
  std::printf("\nfull sweep (load excluded)\n");
  std::printf("  text        : %10.2f ms\n", text_sweep_ms);
  std::printf("  binary      : %10.2f ms\n", binary_sweep_ms);

  std::printf("\n");
  bool ok = true;
  ok &= bench::check("binary load >= 5x faster than text", speedup >= 5.0);
  ok &= bench::check("text and binary reports byte-identical (text)",
                     text_report.text() == binary_report.text());
  ok &= bench::check("text and binary reports byte-identical (json)",
                     text_report.json() == binary_report.json());

  if (!json_path.empty()) {
    auto doc = study::JsonValue::object();
    doc.set("bench", "tdf_load");
    doc.set("fixture", study::JsonValue::object()
                           .set("config", quick ? "quick" : "default")
                           .set("seed", config.seed)
                           .set("events", context.frame.size())
                           .set("jobs", context.load_stats.job_lines)
                           .set("smi_blocks", context.load_stats.smi_blocks)
                           .set("text_bytes", static_cast<std::uint64_t>(text_bytes))
                           .set("binary_bytes", static_cast<std::uint64_t>(binary_bytes)));
    doc.set("reps", reps);
    doc.set("load_ms", study::JsonValue::object()
                           .set("text", text_load_ms)
                           .set("binary", binary_load_ms)
                           .set("speedup", speedup));
    doc.set("sweep_ms", study::JsonValue::object()
                            .set("text", text_sweep_ms)
                            .set("binary", binary_sweep_ms));
    doc.set("checks", study::JsonValue::object()
                          .set("speedup_5x", speedup >= 5.0)
                          .set("reports_identical",
                               text_report.text() == binary_report.text() &&
                                   text_report.json() == binary_report.json()));
    study::write_text(json_path, doc.dump() + "\n");
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  fs::remove_all(root);
  return ok ? 0 : 1;
}
