// The facility simulation: wires topology, fleet, workload, fault
// processes and logging into one reproducible study campaign, and bundles
// everything the paper's analyses consume into a StudyDataset.
//
// One `run_study` call is the synthetic equivalent of "operate Titan from
// Jun'2013 to Feb'2015 and collect the console logs, nvidia-smi snapshots
// and job logs".
#pragma once

#include <cstdint>
#include <vector>

#include "fault/campaign.hpp"
#include "gpu/fleet.hpp"
#include "logsim/smi.hpp"
#include "profile/fleet_profile.hpp"
#include "sched/users.hpp"
#include "sched/workload.hpp"
#include "stats/calendar.hpp"

namespace titan::core {

struct FacilityConfig {
  /// Master seed: every stochastic stream in the study forks from it.
  std::uint64_t seed = 20151115;  // SC'15 in Austin: Nov 15, 2015

  stats::StudyPeriod period{};
  sched::UserPopulationParams users{};
  sched::WorkloadParams workload{};
  fault::CampaignParams campaign{};

  /// Fleet profile the campaign and renderers run under.  Never null;
  /// points at a process-lifetime singleton (see src/profile).  Use
  /// apply_profile to switch: it also copies the profile's fault
  /// calibration into campaign.model.
  const profile::FleetProfile* profile = &profile::k20x_titan();
};

/// Point `config` at `profile` and adopt its fault calibration (overwrites
/// any campaign.model ablation overrides, so apply the profile first).
void apply_profile(FacilityConfig& config, const profile::FleetProfile& profile);

/// The canonical full-study configuration used by every figure bench.
[[nodiscard]] FacilityConfig default_config(std::uint64_t seed = 20151115);
[[nodiscard]] FacilityConfig default_config(std::uint64_t seed,
                                            const profile::FleetProfile& profile);

/// A reduced configuration (3 months) for tests and examples that need a
/// fast end-to-end run.
[[nodiscard]] FacilityConfig quick_config(std::uint64_t seed = 7);
[[nodiscard]] FacilityConfig quick_config(std::uint64_t seed,
                                          const profile::FleetProfile& profile);

/// Everything one study run produces.
struct StudyDataset {
  FacilityConfig config;
  sched::JobTrace trace;
  sched::DeadlineCalendar deadlines;
  double workload_utilization = 0.0;

  gpu::Fleet fleet;                          ///< end-of-study card state
  std::vector<fault::CardTraits> traits;     ///< ground-truth latents
  std::vector<xid::Event> events;            ///< ground truth, time-sorted
  std::vector<fault::SbeStrike> sbe_strikes; ///< time-sorted
  std::vector<fault::HotSpareAction> hot_spare_actions;
  topology::NodeId bad_node = topology::kInvalidNode;

  logsim::SmiSnapshot final_snapshot;        ///< end-of-study smi sweep
};

/// The trace-independent start of a study: the workload (users -> jobs on
/// the torus), the installed fleet, and the fault campaign plan (phases
/// A-C).  The fleet and the plan never read the trace, so they are built
/// on the workload's submission-draw side, beside its placement loop.
/// run_study and ShardedStudy both start here, so they derive every
/// stream the same way.
struct StudyFrontEnd {
  sched::WorkloadResult workload;
  gpu::Fleet fleet;
  fault::CampaignSchedule plan;
};

/// Build the front end.  Deterministic in `config`.
[[nodiscard]] StudyFrontEnd build_front_end(const FacilityConfig& config);

/// Run the full simulation pipeline.  Deterministic in `config`.
[[nodiscard]] StudyDataset run_study(const FacilityConfig& config);

}  // namespace titan::core
