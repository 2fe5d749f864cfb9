// Differential crash-sweep harness: the executable proof behind the
// crash-consistency claim.
//
// run_runlength_sweep drives a dataset writer through every kill point
// it has: a reference run under FaultMode::kNone counts the kill-point
// hits (T of them), then the writer is rerun T times under
// FaultMode::kRunLength with n = 1..T, dying at a different durable-
// state transition each time.  Every killed directory is classified
// against exactly two acceptable outcomes:
//
//   * kCleanSalvage -- the directory still loads, and BOTH the strict
//     and salvage loads digest byte-identically to the reference (the
//     kill landed after the commit point or before anything durable
//     changed meaning);
//   * kNamedFailure -- the strict load throws ingest::IngestError with a
//     taxonomy code (E_ORPHAN_TMP, E_CKPT_INCOMPLETE,
//     E_PARTIAL_SHARD_SET, ...): the damage was detected and named.
//
// Anything else -- a load that succeeds with different bytes, or an
// unnamed exception -- is kSilentCorruption, the outcome the whole
// subsystem exists to make impossible.  After classification the writer
// is rerun over the killed directory (a rerun is every writer's resume)
// and the result must be byte-identical, file for file, to the
// reference.
//
// Classification happens on a scratch COPY of each killed directory, so
// salvage-side quarantining never pollutes what the rerun sees.
#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "faulttest/faulttest.hpp"
#include "ingest/triage.hpp"

namespace titan::study {

/// What one kill left behind.
enum class CrashOutcome : std::uint8_t {
  kCleanSalvage,      ///< loads byte-identically to the reference
  kNamedFailure,      ///< strict load throws a named IngestError
  kSilentCorruption,  ///< loads differently, or dies without a name
};

[[nodiscard]] std::string_view crash_outcome_name(CrashOutcome outcome) noexcept;

/// One kill point's verdict.
struct KillOutcome {
  std::size_t kill_point = 0;  ///< 1-based RunLength index
  std::string site;            ///< kill-point site name that fired
  CrashOutcome outcome = CrashOutcome::kSilentCorruption;
  std::optional<ingest::TriageCode> code;  ///< set for kNamedFailure
  bool rerun_identical = false;
  std::string detail;  ///< difference / error context when not clean
};

/// The whole sweep's verdict.
struct SweepResult {
  std::size_t total_points = 0;                ///< kill-point hits in the reference run
  std::vector<faulttest::SiteHits> sites;      ///< reference-run site census
  std::vector<KillOutcome> kills;              ///< one per kill point, ascending
  std::map<std::string, std::size_t> sites_killed;  ///< site -> kill count
  std::map<std::string, std::size_t> code_counts;   ///< code name -> named failures

  /// True when no kill produced silent corruption and every rerun was
  /// byte-identical to the reference.
  [[nodiscard]] bool clean() const noexcept;

  /// Byte-stable sweep summary (bench + test output).
  [[nodiscard]] std::string summary_text() const;
};

/// A dataset producer under test: writes into the given directory.
using WriteFn = std::function<void(const std::filesystem::path&)>;

/// First difference between two directories' regular files (names
/// compared as sorted relative paths, contents byte for byte), or
/// nullopt when identical.
[[nodiscard]] std::optional<std::string> first_dir_difference(
    const std::filesystem::path& a, const std::filesystem::path& b);

[[nodiscard]] bool dirs_identical(const std::filesystem::path& a,
                                  const std::filesystem::path& b);

/// Run the full RunLength sweep for `write`, rerunning it over each
/// killed directory, under `scratch` (created; contents clobbered).
/// Leaves the fault-test subsystem disarmed (FaultMode::kNone) on return.
[[nodiscard]] SweepResult run_runlength_sweep(const WriteFn& write,
                                              const std::filesystem::path& scratch);

}  // namespace titan::study
