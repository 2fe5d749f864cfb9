#include "core/sharded.hpp"

#include <stdexcept>
#include <utility>


namespace titan::core {

ShardedStudy::ShardedStudy(const FacilityConfig& config, std::size_t shard_count)
    : config_{config}, front_{build_front_end(config)} {
  if (shard_count == 0) {
    throw std::invalid_argument{"ShardedStudy: shard_count must be positive"};
  }
  const std::size_t cards = front_.plan.card_count();
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
      fault::run_card_streams(front_.plan, front_.fleet, trace(), lo, hi, /*collect_sbe=*/false);
  std::vector<xid::Event> tail;
  if (shard + 1 == shard_count()) {
    tail = fault::run_campaign_tail(front_.plan, front_.fleet, trace()).events;
  }
  // The campaign's own stable time order (attribution and parent links
  // are simulator-side fields that the serialized columns never carry).
  const auto ordered =
      fault::order_streams(streams, std::move(tail), front_.plan.params.period.end - 1);

  ShardEventColumns out;
  out.times.reserve(ordered.order.size());
  out.nodes.reserve(ordered.order.size());
  out.kinds.reserve(ordered.order.size());
  out.structures.reserve(ordered.order.size());
  for (const std::uint32_t i : ordered.order) {
    const auto& ev = ordered[i];
    // Console-recoverable view: SBEs never reach the log (the same
    // downgrade EventFrame::build applies on the unsharded path).
    if (ev.kind == xid::ErrorKind::kSingleBitError) continue;
    out.times.push_back(ev.time);
    out.nodes.push_back(ev.node);
    out.kinds.push_back(ev.kind);
    out.structures.push_back(ev.structure);
  }
  return out;
}

logsim::SmiSnapshot ShardedStudy::final_snapshot() const {
  if (!complete()) {
    throw std::logic_error{
        "ShardedStudy: final_snapshot requires every shard to have been generated"};
  }
  return logsim::take_snapshot(front_.fleet, config_.period.end - 1, config_.campaign.thermal);
}

double ShardedStudy::node_hours() const noexcept {
  return static_cast<double>(topology::kComputeNodes) *
         static_cast<double>(config_.period.duration()) / 3600.0;
}

}  // namespace titan::core
