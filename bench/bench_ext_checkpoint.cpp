// Extension bench: checkpoint-interval policy driven by the measured DBE
// MTBF (the fault-tolerance implication the paper's introduction
// motivates: "HPC workloads ... rely on checkpointing mechanisms").
//
// Uses the campaign's actual app-fatal failure stream to (a) validate the
// Young/Daly analytic optimum against trace replay and (b) quantify what
// a wrong MTBF estimate costs.
#include "bench/common.hpp"

#include <algorithm>
#include <iterator>

#include "analysis/reliability_report.hpp"
#include "ckpt/daly.hpp"
#include "ckpt/replay.hpp"

int main() {
  using namespace titan;
  const auto& study = bench::full_study();
  const auto& frame = bench::full_frame();
  const auto& period = study.config.period;

  // App-fatal hardware failures machine-wide (DBE + OTB), the hazard a
  // full-machine application sees: merge the two time-sorted slices.
  const auto dbe = frame.times_of(xid::ErrorKind::kDoubleBitError);
  const auto otb = frame.times_of(xid::ErrorKind::kOffTheBus);
  std::vector<stats::TimeSec> failures;
  failures.reserve(dbe.size() + otb.size());
  std::merge(dbe.begin(), dbe.end(), otb.begin(), otb.end(), std::back_inserter(failures));
  const auto mtbf = stats::estimate_mtbf(failures, period.begin, period.end);

  bench::print_header("Extension -- checkpoint policy from measured MTBF");
  std::printf("  app-fatal hardware failures: %zu   machine MTBF: %.1f h\n",
              mtbf.event_count, mtbf.mtbf_hours);

  ckpt::CheckpointParams params;
  params.checkpoint_cost = 300.0;                   // 5 min defensive dump
  params.restart_cost = 600.0;                      // reload + requeue
  params.mtbf = mtbf.mtbf_hours * 3600.0;
  const double daly = ckpt::daly_interval(params);
  std::printf("  checkpoint cost: %.0f s   restart: %.0f s\n", params.checkpoint_cost,
              params.restart_cost);
  std::printf("  Young interval: %.0f s   Daly interval: %.0f s (%.1f h)\n",
              ckpt::young_interval(params), daly, daly / 3600.0);

  bench::print_header("Interval sweep -- analytic model vs trace replay");
  const double work = 90.0 * 86400.0;  // a 90-day campaign of useful work
  std::vector<double> intervals;
  for (const double mult : {0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0}) {
    intervals.push_back(daly * mult);
  }
  const auto sweep = ckpt::sweep_intervals(work, params.checkpoint_cost, params.restart_cost,
                                           period.begin, failures, intervals);
  std::printf("  interval (x Daly) | analytic waste | replay waste\n");
  double best_replay = 1.0;
  double best_interval = 0.0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double analytic = ckpt::expected_waste_fraction(params, sweep[i].interval);
    std::printf("  %9.2f         | %13s | %s\n", sweep[i].interval / daly,
                render::fmt_percent(analytic).c_str(),
                render::fmt_percent(sweep[i].waste).c_str());
    if (sweep[i].waste < best_replay) {
      best_replay = sweep[i].waste;
      best_interval = sweep[i].interval;
    }
  }
  const double daly_replay = sweep[3].waste;  // the 1.0x point

  bool ok = true;
  ok &= bench::check("replay minimum is at or adjacent to the Daly interval",
                     best_interval >= daly * 0.2 && best_interval <= daly * 5.0);
  ok &= bench::check("Daly point within 2% absolute waste of the replay optimum",
                     daly_replay - best_replay <= 0.02);
  ok &= bench::check("over-frequent checkpointing (0.1x) is clearly worse",
                     sweep[0].waste > daly_replay);
  ok &= bench::check("under-checkpointing (10x) is clearly worse",
                     sweep.back().waste > daly_replay);
  return ok ? 0 : 1;
}
