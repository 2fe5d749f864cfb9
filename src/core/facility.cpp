#include "core/facility.hpp"

#include "stats/rng.hpp"

namespace titan::core {

void apply_profile(FacilityConfig& config, const profile::FleetProfile& profile) {
  config.profile = &profile;
  config.campaign.model = profile.fault;
}

FacilityConfig default_config(std::uint64_t seed) {
  FacilityConfig config;
  config.seed = seed;
  config.workload.period = config.period;
  config.campaign.period = config.period;
  return config;
}

FacilityConfig default_config(std::uint64_t seed, const profile::FleetProfile& profile) {
  FacilityConfig config = default_config(seed);
  apply_profile(config, profile);
  return config;
}

FacilityConfig quick_config(std::uint64_t seed) {
  FacilityConfig config;
  config.seed = seed;
  // Three months straddling the two operational eras (solder rework and
  // the new-driver deployment) so short runs still exercise both paths.
  config.period.begin = stats::to_time(stats::CivilDate{2013, 11, 1});
  config.period.end = stats::to_time(stats::CivilDate{2014, 2, 1});
  config.workload.period = config.period;
  config.campaign.period = config.period;
  return config;
}

FacilityConfig quick_config(std::uint64_t seed, const profile::FleetProfile& profile) {
  FacilityConfig config = quick_config(seed);
  apply_profile(config, profile);
  return config;
}

StudyFrontEnd build_front_end(const FacilityConfig& config) {
  const stats::Rng master{config.seed};

  // 1. Workload: user population -> 21 months of batch jobs on the torus.
  // 2. Fleet: procure + install a card per compute node, sample latents.
  // 3. Faults, phases A-C: the campaign plan.
  // 2 and 3 read no trace, so they run on the workload's draw side while
  // its placement loop runs; each draws only its own named fork.
  const auto users = sched::make_user_population(config.users, master.fork("users"));
  gpu::Fleet fleet;
  fault::CampaignSchedule plan;
  auto workload =
      sched::simulate_workload(config.workload, users, master.fork("workload"), [&] {
        auto traits = fault::initialize_fleet(fleet, config.period.begin, master.fork("fleet"),
                                              config.campaign.model);
        plan = fault::plan_fault_campaign(fleet, std::move(traits), config.campaign,
                                          master.fork("faults"));
      });
  return StudyFrontEnd{std::move(workload), std::move(fleet), std::move(plan)};
}

StudyDataset run_study(const FacilityConfig& config) {
  auto front = build_front_end(config);

  // 4. Faults, phases D-F: the full error campaign over the job trace.
  auto campaign =
      fault::run_fault_campaign(std::move(front.plan), front.fleet, front.workload.trace);

  // 5. Logging: the end-of-study nvidia-smi sweep (Figs. 14/15).  The
  // console log is rendered from the event stream when a dataset is
  // written (logsim::emit_console_log), never held here.
  StudyDataset dataset{config,
                       std::move(front.workload.trace),
                       std::move(front.workload.deadlines),
                       front.workload.utilization(),
                       std::move(front.fleet),
                       std::move(campaign.traits),
                       std::move(campaign.events),
                       std::move(campaign.sbe_strikes),
                       std::move(campaign.hot_spare_actions),
                       campaign.bad_node,
                       {}};
  dataset.final_snapshot =
      logsim::take_snapshot(dataset.fleet, config.period.end - 1, config.campaign.thermal);
  return dataset;
}

}  // namespace titan::core
