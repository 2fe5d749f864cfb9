// Checkpoint advisor: turn a campaign's measured reliability into
// actionable checkpoint policy for an application owner.
//
// Given a job scale and per-checkpoint cost, computes the node-count-
// scaled MTBF from the simulated field data (hardware app-fatal failure
// times read straight off the study frame's per-kind index), recommends a
// Young/Daly interval, and validates it by replaying the job against the
// campaign's actual failure trace.
//
//   ./build/examples/checkpoint_advisor [nodes] [checkpoint_seconds]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "ckpt/daly.hpp"
#include "ckpt/replay.hpp"
#include "render/ascii.hpp"
#include "stats/reliability.hpp"
#include "study/source.hpp"

int main(int argc, char** argv) {
  using namespace titan;
  const std::size_t job_nodes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4096;
  const double checkpoint_cost = argc > 2 ? std::strtod(argv[2], nullptr) : 240.0;

  std::printf("Measuring field reliability (3-month campaign)...\n");
  const auto context = study::SimulatedSource{core::quick_config(23)}.load();
  const auto& period = context.period;

  // Machine-wide app-fatal hardware failures: merge the frame's DBE and
  // OTB time slices (each already time-sorted).
  const auto dbe = context.frame.times_of(xid::ErrorKind::kDoubleBitError);
  const auto otb = context.frame.times_of(xid::ErrorKind::kOffTheBus);
  std::vector<stats::TimeSec> failures;
  failures.reserve(dbe.size() + otb.size());
  std::merge(dbe.begin(), dbe.end(), otb.begin(), otb.end(), std::back_inserter(failures));
  const auto machine_mtbf = stats::estimate_mtbf(failures, period.begin, period.end);

  // A job on N of the 18,688 nodes sees roughly N/18688 of the hazard.
  const double fraction =
      static_cast<double>(job_nodes) / static_cast<double>(topology::kComputeNodes);
  const double job_mtbf_s = machine_mtbf.mtbf_hours * 3600.0 / std::max(1e-9, fraction);

  std::printf("\n  machine MTBF (hw app-fatal): %.1f h (%zu failures)\n",
              machine_mtbf.mtbf_hours, machine_mtbf.event_count);
  std::printf("  job scale: %zu nodes -> job-visible MTBF: %.1f h\n", job_nodes,
              job_mtbf_s / 3600.0);

  ckpt::CheckpointParams params{checkpoint_cost, 2.0 * checkpoint_cost, job_mtbf_s};
  const double interval = ckpt::daly_interval(params);
  std::printf("\n  RECOMMENDATION: checkpoint every %.0f s (%.2f h)\n", interval,
              interval / 3600.0);
  std::printf("  expected overhead: %s of wall-clock\n",
              render::fmt_percent(ckpt::expected_waste_fraction(params, interval)).c_str());

  // Validate against the actual trace: thin machine failures to the job's
  // node fraction deterministically (every k-th failure).
  std::vector<stats::TimeSec> job_failures;
  const auto stride = static_cast<std::size_t>(std::max(1.0, 1.0 / std::max(1e-9, fraction)));
  for (std::size_t i = 0; i < failures.size(); i += stride) job_failures.push_back(failures[i]);

  std::printf("\n  trace replay of a 30-day run at three intervals:\n");
  std::printf("    interval      waste   failures hit\n");
  for (const double mult : {0.2, 1.0, 5.0}) {
    const auto result = ckpt::replay_run(30.0 * 86400.0, interval * mult, checkpoint_cost,
                                         params.restart_cost, period.begin, job_failures);
    std::printf("    %7.0f s   %7s   %zu%s\n", interval * mult,
                render::fmt_percent(result.waste_fraction()).c_str(), result.failures_hit,
                mult == 1.0 ? "   <-- recommended" : "");
  }
  return 0;
}
