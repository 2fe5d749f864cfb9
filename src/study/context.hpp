// StudyContext: everything one reliability study runs over, built once by
// a StudySource and shared (read-only) by every analysis kernel.
//
// The context is the repo's single ingestion product: the EventFrame
// (the study's one event representation, built exactly once -- with the
// fleet-ledger card join when a fleet is known, and the job/root columns
// when ground truth is), the study period, and whatever side artifacts
// the source could provide (nvidia-smi sweep, job accounting, simulator
// ground truth).  Capability bits record which side artifacts exist, so
// the AnalysisRegistry can decide -- per kernel, not per source type --
// what is runnable.  Kernels consume only what
// their declared capabilities cover, which is what makes a simulated
// study and a dataset round-trip of the same seed produce byte-identical
// reports on the shared capability set.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

#include "analysis/event_frame.hpp"
#include "core/facility.hpp"
#include "ingest/triage.hpp"
#include "profile/fleet_profile.hpp"
#include "logsim/joblog.hpp"
#include "logsim/smi.hpp"
#include "stats/calendar.hpp"

namespace titan::study {

/// What a StudyContext can feed an analysis kernel.  Sources set the
/// union of what they loaded; registry entries declare what they need.
enum Capability : unsigned {
  kEvents = 1U << 0,       ///< the frame's base columns and per-kind index
  kLedger = 1U << 1,       ///< the frame's fleet-ledger card column
  kSnapshot = 1U << 2,     ///< end-of-study nvidia-smi sweep
  kTrace = 1U << 3,        ///< full job trace with node placement
  kGroundTruth = 1U << 4,  ///< the frame's job/root attribution columns
  kStrikes = 1U << 5,      ///< raw SBE strike stream (simulator-only)
};

struct StudyContext {
  /// Fleet profile the data was generated (or recorded) under.  Never
  /// null; points at a process-lifetime singleton.  Analysis kernels
  /// read their kind lists, descriptions and repair policy from here.
  const profile::FleetProfile* profile = &profile::k20x_titan();

  stats::StudyPeriod period{};
  /// Retirement accounting cutoff (the paper's "only after Jan'2014"
  /// rule); the new-driver date for simulated runs, from the dataset
  /// manifest otherwise.
  stats::TimeSec accounting_from = 0;

  /// The console-recoverable event stream (time-sorted, SBEs never
  /// appear) as columns, built once at load.  Card column valid iff
  /// kLedger; job/root columns valid iff kGroundTruth.
  analysis::EventFrame frame;

  /// End-of-study nvidia-smi sweep (valid iff kSnapshot).
  logsim::SmiSnapshot snapshot;
  /// Job accounting view (dataset loads; simulated contexts use the
  /// richer trace() instead).
  std::vector<logsim::JobLogRecord> job_log;

  /// Simulator ground truth (simulated sources only).
  std::optional<core::StudyDataset> truth;

  /// Ingestion accounting, for CLI preambles.
  struct LoadStats {
    std::size_t console_lines = 0;
    std::size_t malformed_lines = 0;
    std::size_t unrelated_lines = 0;
    std::size_t job_lines = 0;
    std::size_t malformed_job_lines = 0;
    std::size_t smi_blocks = 0;
    std::size_t malformed_smi_blocks = 0;
    bool binary = false;          ///< loaded from dataset.tdf, not text logs
    std::size_t tdf_segments = 0; ///< segments decoded from the container(s)
    std::size_t tdf_bytes = 0;    ///< container size on disk (all shards)
    std::size_t shards = 0;       ///< shard containers merged (0 = monolithic)
  };
  LoadStats load_stats;

  /// Triage record of a salvage-mode dataset load (absent for strict
  /// loads and simulated sources, which keeps clean-input reports
  /// byte-identical to an ingest-unaware build).
  std::optional<ingest::IngestReport> ingest_report;

  unsigned capabilities = 0;

  /// True when every bit of `mask` is available.
  [[nodiscard]] bool has(unsigned mask) const noexcept {
    return (capabilities & mask) == mask;
  }

  /// Ground-truth job trace; throws std::logic_error without kTrace.
  [[nodiscard]] const sched::JobTrace& trace() const {
    if (!truth) throw std::logic_error{"StudyContext: no job trace (dataset-only context)"};
    return truth->trace;
  }
};

}  // namespace titan::study
