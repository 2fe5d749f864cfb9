#include "logsim/smi.hpp"

#include <algorithm>
#include <cstdint>

namespace titan::logsim {

std::uint64_t SmiSnapshot::fleet_sbe_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : records) total += r.sbe_total;
  return total;
}

std::uint64_t SmiSnapshot::fleet_dbe_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : records) total += r.dbe_total;
  return total;
}

SmiSnapshot take_snapshot(const gpu::Fleet& fleet, stats::TimeSec when,
                          const topology::ThermalModel& thermal) {
  SmiSnapshot snap;
  snap.taken_at = when;
  snap.records.reserve(static_cast<std::size_t>(topology::kComputeNodes));
  for (topology::NodeId node = 0; node < topology::kNodeSlots; ++node) {
    const xid::CardId serial = fleet.ledger().card_at(node, when);
    if (serial == xid::kInvalidCard) continue;
    const gpu::GpuCard& card = fleet.card(serial);
    SmiCardRecord rec;
    rec.node = node;
    rec.serial = serial;
    rec.sbe_total = card.inforom().sbe_total();
    rec.dbe_total = card.inforom().dbe_total();
    rec.sbe_volatile = card.inforom().sbe_volatile();
    rec.dbe_volatile = card.inforom().dbe_volatile();
    rec.retired_pages_sbe = card.inforom().retired_page_count(gpu::RetireCause::kMultipleSbe);
    rec.retired_pages_dbe =
        card.inforom().retired_page_count(gpu::RetireCause::kDoubleBitError);
    rec.temperature_f = thermal.nominal_gpu_temp_f(topology::locate(node));
    snap.records.push_back(rec);
  }
  return snap;
}

std::vector<JobSbeRecord> per_job_sbe_counts(const std::vector<fault::SbeStrike>& strikes,
                                             const sched::JobTrace& trace,
                                             stats::TimeSec window_begin,
                                             stats::TimeSec window_end) {
  // Index strike times by node for range counting.  Few nodes are ever
  // struck, so a byte map lets the job walk skip the rest without
  // touching their (empty) time lists.
  std::vector<std::vector<stats::TimeSec>> by_node(
      static_cast<std::size_t>(topology::kNodeSlots));
  std::vector<std::uint8_t> struck(static_cast<std::size_t>(topology::kNodeSlots), 0);
  for (const auto& s : strikes) {
    by_node[static_cast<std::size_t>(s.node)].push_back(s.time);
    struck[static_cast<std::size_t>(s.node)] = 1;
  }
  for (auto& times : by_node) std::sort(times.begin(), times.end());

  std::vector<JobSbeRecord> out;
  for (const auto& job : trace.jobs()) {
    if (job.start < window_begin || job.start >= window_end) continue;
    JobSbeRecord rec;
    rec.job = job.id;
    for (const topology::NodeId node : job.nodes) {
      if (struck[static_cast<std::size_t>(node)] == 0) continue;
      const auto& times = by_node[static_cast<std::size_t>(node)];
      const auto lo = std::lower_bound(times.begin(), times.end(), job.start);
      const auto hi = std::lower_bound(times.begin(), times.end(), job.end);
      rec.sbe_count += static_cast<std::uint64_t>(hi - lo);
    }
    out.push_back(rec);
  }
  return out;
}

}  // namespace titan::logsim
