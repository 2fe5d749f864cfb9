#include "core/sharded.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "par/parallel.hpp"
#include "sched/users.hpp"
#include "stats/rng.hpp"

namespace titan::core {

namespace {

/// Streams per parallel task in the clamp/sort pass (mirrors the
/// campaign's per-card grain; the value affects scheduling only).
constexpr std::size_t kStreamGrain = 64;

/// Identical stream derivation to run_study: same master forks, same
/// order, so the plan (and with it every event) matches the unsharded
/// path exactly.
[[nodiscard]] sched::WorkloadResult make_workload(const FacilityConfig& config) {
  const stats::Rng master{config.seed};
  const auto users = sched::make_user_population(config.users, master.fork("users"));
  return sched::simulate_workload(config.workload, users, master.fork("workload"));
}

}  // namespace

ShardedStudy::ShardedStudy(const FacilityConfig& config, std::size_t shard_count)
    : config_{config}, workload_{make_workload(config)} {
  if (shard_count == 0) {
    throw std::invalid_argument{"ShardedStudy: shard_count must be positive"};
  }
  const stats::Rng master{config.seed};
  auto traits = fault::initialize_fleet(fleet_, config.period.begin, master.fork("fleet"),
                                        config.campaign.model);
  plan_ = fault::plan_fault_campaign(fleet_, std::move(traits), config.campaign,
                                     master.fork("faults"));

  const std::size_t cards = plan_.card_count();
  bounds_.resize(shard_count + 1);
  for (std::size_t s = 0; s <= shard_count; ++s) {
    bounds_[s] = cards * s / shard_count;
  }
}

ShardEventColumns ShardedStudy::shard_events(std::size_t shard) {
  if (shard >= shard_count()) {
    throw std::invalid_argument{"ShardedStudy: shard index out of range"};
  }
  if (shard != next_shard_) {
    throw std::logic_error{"ShardedStudy: shards must be generated once each, in order"};
  }
  ++next_shard_;

  const auto [lo, hi] = shard_card_range(shard);
  std::vector<fault::CardStream> streams =
      fault::run_card_streams(plan_, fleet_, workload_.trace, lo, hi, /*collect_sbe=*/false);
  std::optional<fault::TailStream> tail;
  if (shard + 1 == shard_count()) {
    tail = fault::run_campaign_tail(plan_, fleet_, workload_.trace);
  }

  const std::size_t stream_count = streams.size() + (tail ? 1 : 0);
  const auto stream_events = [&](std::size_t s) -> std::vector<xid::Event>& {
    return s < streams.size() ? streams[s].events : tail->events;
  };

  // The same clamp + per-stream stable time sort phase F applies before
  // its merge (attribution and parent rebasing are simulator-side fields
  // that the serialized columns never carry).
  const stats::TimeSec end_clamp = plan_.params.period.end - 1;
  std::vector<std::vector<std::uint32_t>> order(stream_count);
  par::parallel_for(0, stream_count, kStreamGrain, [&](std::size_t s) {
    auto& stream = stream_events(s);
    if (stream.empty()) return;
    for (auto& ev : stream) ev.time = std::min(ev.time, end_clamp);
    auto& ord = order[s];
    ord.resize(stream.size());
    std::iota(ord.begin(), ord.end(), std::uint32_t{0});
    std::stable_sort(ord.begin(), ord.end(), [&](std::uint32_t a, std::uint32_t b) {
      return stream[a].time < stream[b].time;
    });
  });

  std::size_t total = 0;
  for (std::size_t s = 0; s < stream_count; ++s) total += stream_events(s).size();

  ShardEventColumns out;
  out.times.reserve(total);
  out.nodes.reserve(total);
  out.kinds.reserve(total);
  out.structures.reserve(total);
  fault::kway_merge(
      stream_count, [&](std::size_t s) { return order[s].size(); },
      [&](std::size_t s, std::size_t i) { return stream_events(s)[order[s][i]].time; },
      [&](std::size_t s, std::size_t i) {
        const auto& ev = stream_events(s)[order[s][i]];
        // Console-recoverable view: SBEs never reach the log (the same
        // downgrade EventFrame::build applies on the unsharded path).
        if (ev.kind == xid::ErrorKind::kSingleBitError) return;
        out.times.push_back(ev.time);
        out.nodes.push_back(ev.node);
        out.kinds.push_back(ev.kind);
        out.structures.push_back(ev.structure);
      });
  return out;
}

logsim::SmiSnapshot ShardedStudy::final_snapshot() const {
  if (!complete()) {
    throw std::logic_error{
        "ShardedStudy: final_snapshot requires every shard to have been generated"};
  }
  return logsim::take_snapshot(fleet_, config_.period.end - 1, config_.campaign.thermal);
}

double ShardedStudy::node_hours() const noexcept {
  return static_cast<double>(topology::kComputeNodes) *
         static_cast<double>(config_.period.duration()) / 3600.0;
}

}  // namespace titan::core
