// Observation 4 ablation: "this observation [upper cages run hotter and
// see more OTB/DBE] was used for improved job scheduling for large GPU
// jobs at OLCF."
//
// Runs the same campaign twice -- production torus-order placement vs a
// cool-cage-first policy for the allocator -- with identical fault seeds,
// and compares how many thermally-sensitive hardware crashes (DBE, OTB)
// land on large jobs.  The counting is a pure read of each study's
// ground-truth EventFrame (kind index + job column).
//
//   ./build/examples/placement_policy [seed]
#include <cstdio>
#include <cstdlib>

#include "render/ascii.hpp"
#include "study/source.hpp"

namespace {

struct InterruptStats {
  std::size_t large_job_hits = 0;   ///< hardware crash on a job >= 512 nodes
  std::size_t any_job_hits = 0;
  std::size_t total_crashes = 0;
};

InterruptStats measure(const titan::study::StudyContext& context) {
  using namespace titan;
  InterruptStats out;
  const auto jobs = context.frame.jobs();
  const auto& trace = context.trace();
  for (const auto kind : {xid::ErrorKind::kDoubleBitError, xid::ErrorKind::kOffTheBus}) {
    for (const auto row : context.frame.rows_of(kind)) {
      ++out.total_crashes;
      if (jobs[row] == xid::kNoJob) continue;
      ++out.any_job_hits;
      if (trace.job(jobs[row]).node_count() >= 512) ++out.large_job_hits;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace titan;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 13;

  auto base = core::quick_config(seed);
  base.workload.policy = sched::PlacementPolicy::kTorusOrder;
  auto cool = base;
  cool.workload.policy = sched::PlacementPolicy::kCoolCageFirst;

  std::printf("Simulating identical fault campaigns under two placement policies...\n\n");
  const auto production = study::SimulatedSource{base}.load();
  const auto improved = study::SimulatedSource{cool}.load();

  const auto p = measure(production);
  const auto c = measure(improved);

  std::printf("  policy            | hw crashes | on any job | on large jobs (>=512 nodes)\n");
  std::printf("  torus-order       | %10zu | %10zu | %zu\n", p.total_crashes, p.any_job_hits,
              p.large_job_hits);
  std::printf("  cool-cage-first   | %10zu | %10zu | %zu\n", c.total_crashes, c.any_job_hits,
              c.large_job_hits);

  if (p.large_job_hits > 0) {
    const double change = 1.0 - static_cast<double>(c.large_job_hits) /
                                    static_cast<double>(p.large_job_hits);
    std::printf("\n  large-job interrupt change under cool-cage-first: %s\n",
                render::fmt_percent(change).c_str());
  }
  std::printf("\n  (Large jobs placed toward cooler, lower cages overlap less with the\n"
              "   thermally-accelerated OTB/DBE population in the top cage -- the same\n"
              "   reasoning OLCF applied operationally.)\n");
  return 0;
}
