// Crash-consistency differential sweep: the executable headline proof.
//
// Every kill point of the dataset pipeline -- the sharded out-of-core
// generator, the monolithic text and binary writers, and the re-sharding
// converter -- is visited with a RunLength kill, and the directory each
// kill leaves behind is classified against exactly two acceptable
// outcomes: clean salvage (strict AND salvage loads digest
// byte-identically to the uninterrupted reference) or a named triage
// failure (E_ORPHAN_TMP, E_CKPT_INCOMPLETE, E_PARTIAL_SHARD_SET, ...).
// Anything else is silent corruption and fails the bench.  After
// classification the writer is rerun over the crash state (a rerun is
// every writer's resume) and must converge to the reference bytes, file
// for file.
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "core/facility.hpp"
#include "study/crashtest.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"

namespace {

namespace fs = std::filesystem;
using namespace titan;

constexpr std::uint64_t kSeed = 29;

void print_header(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

bool run(const char* title, const study::WriteFn& write, const fs::path& scratch) {
  print_header(title);
  const auto sweep = study::run_runlength_sweep(write, scratch);
  std::printf("%s", sweep.summary_text().c_str());
  std::error_code ec;
  fs::remove_all(scratch, ec);
  return sweep.clean();
}

}  // namespace

int main() {
  const auto root =
      fs::temp_directory_path() / ("titanrel_crash_bench_" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  bool ok = true;
  const auto config = core::quick_config(kSeed);

  ok &= run(
      "sharded generator (3 shards, out-of-core, rerun-to-resume)",
      [&](const fs::path& dir) { study::generate_sharded_dataset(config, 3, dir); },
      root / "sharded");

  const auto context = study::SimulatedSource{config}.load();
  const auto write_text_fn = [&](const fs::path& dir) {
    study::write_dataset(context, dir, study::DatasetFormat::kText);
  };
  ok &= run("monolithic text writer (rerun-to-resume)", write_text_fn, root / "text");

  const auto write_binary_fn = [&](const fs::path& dir) {
    study::write_dataset(context, dir, study::DatasetFormat::kBinary);
  };
  ok &= run("monolithic binary writer (rerun-to-resume)", write_binary_fn, root / "binary");

  const auto reshard_fn = [&](const fs::path& dir) {
    study::write_sharded_dataset(context, dir, 2);
  };
  ok &= run("re-sharding converter (2 shards, rerun-to-resume)", reshard_fn, root / "reshard");

  std::error_code ec;
  fs::remove_all(root, ec);
  std::printf("\n%s\n", ok ? "CRASH SWEEP: no silent corruption, all reruns converged"
                           : "CRASH SWEEP: FAILURES (see above)");
  return ok ? 0 : 1;
}
