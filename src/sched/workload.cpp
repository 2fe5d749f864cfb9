#include "sched/workload.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>

#include "par/run_ahead.hpp"
#include "stats/distributions.hpp"

namespace titan::sched {

namespace {

constexpr stats::TimeSec kWeekSeconds = 7 * stats::kSecondsPerDay;

/// A sampled submission, before placement.
struct JobSpec {
  xid::UserId user = xid::kNoUser;
  std::size_t node_count = 1;
  stats::TimeSec wall = 0;
  bool debug = false;
  double mem_per_node_gb = 1.0;
  double gpu_duty = 0.5;
  double core_hour_jitter = 1.0;
};

JobSpec sample_spec(const UserProfile& user, bool deadline_week, double max_nodes,
                    double wall_cap_hours, stats::Rng& rng) {
  JobSpec spec;
  spec.user = user.id;

  const double raw_nodes = stats::sample_lognormal(rng, user.scale_mu, user.scale_sigma);
  spec.node_count =
      static_cast<std::size_t>(std::clamp(raw_nodes, 1.0, std::max(1.0, max_nodes)));

  double wall_s = stats::sample_lognormal(rng, user.duration_mu, user.duration_sigma);
  const double debug_p =
      std::min(0.9, user.debug_propensity * (deadline_week ? user.deadline_factor : 1.0));
  spec.debug = rng.bernoulli(debug_p);
  if (spec.debug) {
    // Debug/test runs die early, and most users debug at reduced scale
    // (though some only hit their bug at full scale, which is what paints
    // Fig. 12's large-allocation patterns).
    wall_s *= rng.uniform(0.05, 0.4);
    if (rng.bernoulli(0.7)) {
      spec.node_count = std::max<std::size_t>(1, spec.node_count / 4);
    }
  }
  wall_s = std::clamp(wall_s, 60.0, wall_cap_hours * 3600.0);
  spec.wall = static_cast<stats::TimeSec>(wall_s);

  spec.mem_per_node_gb =
      6.0 * std::clamp(user.memory_appetite * stats::sample_lognormal(rng, 0.0, 0.35), 0.02, 1.0);
  spec.gpu_duty = std::clamp(user.gpu_duty * stats::sample_lognormal(rng, 0.0, 0.2), 0.05, 1.0);
  spec.core_hour_jitter = stats::sample_lognormal(rng, 0.0, 0.1);
  return spec;
}

/// A timestamped submission, as the draw hands it to placement.
struct Submission {
  stats::TimeSec time = 0;
  JobSpec spec;
};
using SubmissionBlock = std::vector<Submission>;

/// Submissions per block the draw publishes: big enough that the
/// hand-off lock is rare, small enough that placement starts early.
constexpr std::size_t kSubmissionBlock = 2048;

/// The job vector's reservation: the arrivals the period sees at the
/// mean gap plus four standard deviations, capped so that an odd gap
/// cannot reserve for millions of jobs that the queue cap would shed.
std::size_t expected_submissions(const WorkloadParams& params) {
  const double mean = static_cast<double>(params.period.duration()) /
                      std::max(1.0, params.mean_arrival_gap_s);
  return std::min<std::size_t>(static_cast<std::size_t>(mean + 4.0 * std::sqrt(mean)) + 64,
                               std::size_t{1} << 18);
}

}  // namespace

DeadlineCalendar::DeadlineCalendar(const stats::StudyPeriod& period, double week_probability,
                                   stats::Rng rng)
    : origin_{period.begin} {
  const auto weeks =
      static_cast<std::size_t>((period.duration() + kWeekSeconds - 1) / kWeekSeconds);
  weeks_.resize(weeks);
  for (std::size_t w = 0; w < weeks; ++w) weeks_[w] = rng.bernoulli(week_probability);
}

bool DeadlineCalendar::is_deadline(stats::TimeSec t) const noexcept {
  if (t < origin_) return false;
  const auto w = static_cast<std::size_t>((t - origin_) / kWeekSeconds);
  return w < weeks_.size() && weeks_[w];
}

std::size_t DeadlineCalendar::deadline_week_count() const noexcept {
  return static_cast<std::size_t>(std::count(weeks_.begin(), weeks_.end(), true));
}

WorkloadResult simulate_workload(const WorkloadParams& params,
                                 std::span<const UserProfile> users, stats::Rng rng,
                                 const std::function<void()>& beside) {
  if (users.empty()) throw std::invalid_argument{"simulate_workload: no users"};

  auto arrival_rng = rng.fork("arrivals");
  auto spec_rng = rng.fork("specs");

  DeadlineCalendar deadlines{params.period, params.deadline_week_probability,
                             rng.fork("deadlines")};
  TorusAllocator allocator = TorusAllocator::production(params.policy);
  const double max_nodes =
      params.max_job_fraction * static_cast<double>(allocator.total_nodes());

  // Stage 1, the submission draw: arrivals and sampled specs.  It reads
  // no placement state, so it runs ahead of stage 2 in fixed blocks.
  const auto draw = [&](par::Handoff<SubmissionBlock>& handoff) {
    std::vector<double> weights;
    weights.reserve(users.size());
    for (const auto& u : users) weights.push_back(u.activity_weight);
    const stats::DiscreteSampler pick_user{weights};

    SubmissionBlock block;
    block.reserve(kSubmissionBlock);
    stats::TimeSec t = params.period.begin;
    while (true) {
      t += static_cast<stats::TimeSec>(std::max(
          1.0, stats::sample_exponential(arrival_rng, 1.0 / params.mean_arrival_gap_s)));
      if (t >= params.period.end) break;
      const auto& user = users[pick_user(spec_rng)];
      block.push_back({t, sample_spec(user, deadlines.is_deadline(t), max_nodes,
                                      params.wall_cap_hours, spec_rng)});
      if (block.size() == kSubmissionBlock) {
        handoff.push(std::move(block));
        block = {};
        block.reserve(kSubmissionBlock);
      }
    }
    if (!block.empty()) handoff.push(std::move(block));
    handoff.close();
    if (beside) beside();
  };

  // Stage 2, the placement loop: completions, FIFO backfill, allocate
  // and release.
  std::vector<JobRecord> jobs;
  jobs.reserve(expected_submissions(params));
  std::size_t shed = 0;
  double busy_node_hours = 0.0;
  WorkloadStats stats;
  const auto place = [&](par::Handoff<SubmissionBlock>& handoff) {
    // Completion min-heap: (end time, job index).
    using Completion = std::pair<stats::TimeSec, std::size_t>;
    std::priority_queue<Completion, std::vector<Completion>, std::greater<>> running;
    std::deque<JobSpec> waiting;

    const auto start_job = [&](const JobSpec& spec, stats::TimeSec now) -> bool {
      if (now >= params.period.end) return false;  // campaign over: nothing starts
      auto nodes = allocator.allocate(spec.node_count);
      if (!nodes) return false;
      JobRecord job;
      job.id = static_cast<xid::JobId>(jobs.size());
      job.user = spec.user;
      job.start = now;
      job.end = std::min(params.period.end, now + spec.wall);
      job.nodes = std::move(*nodes);
      job.debug = spec.debug;
      const double wall_hours = static_cast<double>(job.end - job.start) / 3600.0;
      const auto nodes_d = static_cast<double>(job.nodes.size());
      job.gpu_core_hours = nodes_d * wall_hours * spec.gpu_duty * spec.core_hour_jitter;
      // RUR-style accounting, both per-node quantities: maximum is the
      // peak (maxrss analogue); total integrates the footprint over the
      // job's lifetime (GB x hours).
      job.max_memory_gb = spec.mem_per_node_gb;
      job.total_memory_gb = spec.mem_per_node_gb * wall_hours;
      busy_node_hours += nodes_d * wall_hours;
      running.emplace(job.end, jobs.size());
      jobs.push_back(std::move(job));
      return true;
    };

    const auto drain_completions = [&](stats::TimeSec now) {
      while (!running.empty() && running.top().first <= now) {
        const std::size_t idx = running.top().second;
        running.pop();
        allocator.release(jobs[idx].nodes);
        // FIFO backfill: start as many queued jobs as now fit, head
        // first, timestamped at the completion that freed the nodes.
        while (!waiting.empty() && start_job(waiting.front(), jobs[idx].end)) {
          waiting.pop_front();
        }
      }
    };

    while (const auto block = handoff.pop()) {
      ++stats.blocks;
      for (const auto& [t, spec] : *block) {
        drain_completions(t);
        if (!waiting.empty() || !start_job(spec, t)) {
          if (waiting.size() < params.max_queue) {
            waiting.push_back(spec);
          } else {
            ++shed;
          }
        }
      }
    }
    stats.blocks_waited = handoff.waits();
    drain_completions(params.period.end);
  };
  par::run_ahead<SubmissionBlock>(draw, place);
  // The occupancy index is built here, on the calling thread, once every
  // job is placed: its slots are one exact-size allocation that lives as
  // long as the study.
  JobTrace trace{std::move(jobs)};

  stats.fits = allocator.scan_counters().fits;
  stats.fit_words = allocator.scan_counters().words;
  const double capacity =
      static_cast<double>(allocator.total_nodes()) * params.period.hours();
  return WorkloadResult{std::move(trace), std::move(deadlines), shed, busy_node_hours, capacity,
                        stats};
}

}  // namespace titan::sched
