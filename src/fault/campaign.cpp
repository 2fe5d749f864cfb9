#include "fault/campaign.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "fault/hotspare.hpp"
#include "par/parallel.hpp"
#include "stats/distributions.hpp"
#include "topology/torus.hpp"

namespace titan::fault {

namespace {

using stats::TimeSec;
using topology::NodeId;
using xid::CardId;
using xid::ErrorKind;
using xid::Event;
using xid::MemoryStructure;

constexpr double kSecondsPerDayD = 86400.0;

/// Cards per parallel task in the per-card phases.  Most cards do little
/// work (a handful of reboot ops), so batches must be large enough to
/// amortize dispatch; the SBE-prone minority dominates runtime anyway.
constexpr std::size_t kCardGrain = 64;
/// Jobs per parallel task in the software-XID phase (most jobs are not
/// debug jobs and cost one branch).
constexpr std::size_t kJobGrain = 256;
/// Events per parallel task in the phase F gather (two lookups each).
constexpr std::size_t kEventGrain = 4096;

[[nodiscard]] TimeSec to_timesec(double seconds) {
  return static_cast<TimeSec>(std::llround(seconds));
}

/// All compute NodeIds, ascending.  Built once per process: membership is
/// a property of the machine geometry, not of any one campaign.
[[nodiscard]] const std::vector<NodeId>& compute_nodes() {
  static const std::vector<NodeId> nodes = [] {
    std::vector<NodeId> out;
    out.reserve(static_cast<std::size_t>(topology::kComputeNodes));
    for (NodeId n = 0; n < topology::kNodeSlots; ++n) {
      if (!topology::is_service_node(n)) out.push_back(n);
    }
    return out;
  }();
  return nodes;
}

/// Monthly maintenance reboot instants within the period.
[[nodiscard]] std::vector<TimeSec> maintenance_reboots(const stats::StudyPeriod& period,
                                                       int day_of_month) {
  std::vector<TimeSec> out;
  for (int m = 0; m < period.months(); ++m) {
    const TimeSec t = stats::month_start(period.begin, m) +
                      (day_of_month - 1) * stats::kSecondsPerDay +
                      6 * stats::kSecondsPerHour;
    if (period.contains(t)) out.push_back(t);
  }
  return out;
}

/// Ramp-shaped monthly intensity of the OTB epidemic (solder joints fail
/// increasingly with thermal cycling until the rework).
[[nodiscard]] TimeSec sample_epidemic_time(const stats::StudyPeriod& period, TimeSec fix,
                                           stats::Rng& rng) {
  const int months = stats::month_index(fix - 1, period.begin) + 1;
  std::vector<double> weights(static_cast<std::size_t>(months));
  for (int m = 0; m < months; ++m) {
    // Linear ramp with a late-epidemic plateau.
    weights[static_cast<std::size_t>(m)] = 0.4 + 1.6 * static_cast<double>(m + 1) /
                                                     static_cast<double>(months);
  }
  const stats::DiscreteSampler pick{weights};
  const int month = static_cast<int>(pick(rng));
  const TimeSec lo = stats::month_start(period.begin, month);
  const TimeSec hi = std::min(fix, stats::month_start(period.begin, month + 1));
  return lo + static_cast<TimeSec>(rng.below(static_cast<std::uint64_t>(hi - lo)));
}

/// Radix digit width of stable_time_order: 8192 buckets of 4-byte
/// counts, so a counting array fits in L1 and a 21-month span (26 bits)
/// takes two passes.
constexpr int kDigitBits = 13;
constexpr std::size_t kDigitMask = (std::size_t{1} << kDigitBits) - 1;

/// LSD radix sort of (key, index) pairs on `passes` digits of `Key`.
template <typename Key>
[[nodiscard]] std::vector<std::uint32_t> radix_time_order(std::span<const TimeSec> times,
                                                         TimeSec lo, int passes) {
  const std::size_t n = times.size();
  std::vector<Key> keys(n);
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<Key>(static_cast<std::uint64_t>(times[i]) -
                               static_cast<std::uint64_t>(lo));
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<Key> next_keys(n);
  std::vector<std::uint32_t> next_order(n);
  // n < 2^32 (stable_time_order checks), so 4-byte counts suffice.
  std::vector<std::uint32_t> slot(kDigitMask + 1);
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * kDigitBits;
    const auto digit = [&](Key key) { return static_cast<std::size_t>(key >> shift) & kDigitMask; };
    std::fill(slot.begin(), slot.end(), 0);
    for (const Key key : keys) ++slot[digit(key)];
    std::uint32_t start = 0;
    for (auto& count : slot) {
      const std::uint32_t bucket = count;
      count = start;
      start += bucket;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t to = slot[digit(keys[i])]++;
      next_keys[to] = keys[i];
      next_order[to] = order[i];
    }
    keys.swap(next_keys);
    order.swap(next_order);
  }
  return order;
}

}  // namespace

std::vector<CardTraits> initialize_fleet(gpu::Fleet& fleet, stats::TimeSec when,
                                         stats::Rng rng, const FaultModelParams& model) {
  if (fleet.card_count() != 0) throw std::invalid_argument{"initialize_fleet: fleet not empty"};
  const auto& nodes = compute_nodes();
  const auto populate = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(model.fleet_node_fraction * static_cast<double>(nodes.size()))),
      1, nodes.size());
  for (std::size_t i = 0; i < populate; ++i) {
    const CardId serial = fleet.procure();
    fleet.card(serial).set_retired_page_capacity(model.retired_page_capacity);
    fleet.install(nodes[i], serial, when);
  }
  return sample_card_traits(fleet.card_count(), rng, model);
}

CampaignSchedule plan_fault_campaign(gpu::Fleet& fleet, std::vector<CardTraits> traits,
                                     const CampaignParams& params, stats::Rng rng) {
  if (fleet.card_count() != traits.size()) {
    throw std::invalid_argument{"plan_fault_campaign: traits must match fleet size"};
  }
  const auto& period = params.period;
  const auto& timeline = params.timeline;
  const FaultModelParams& model = params.model;
  const double window_days = static_cast<double>(period.duration()) / kSecondsPerDayD;

  CampaignSchedule plan;
  plan.params = params;
  plan.rng = rng;
  plan.traits = std::move(traits);

  // Card-bearing node roster: every compute node at fleet_node_fraction
  // 1.0 (Titan), a prefix of the machine for smaller fleets.  All the
  // hardware phases draw nodes from this roster only.
  plan.nodes.reserve(compute_nodes().size());
  for (const NodeId node : compute_nodes()) {
    if (fleet.ledger().card_at(node, period.begin) != xid::kInvalidCard) {
      plan.nodes.push_back(node);
    }
  }
  const std::vector<NodeId>& nodes = plan.nodes;

  // Per-card stints; replacements appended as they are procured.
  plan.stints.resize(plan.traits.size());
  for (const NodeId node : nodes) {
    const CardId card = fleet.ledger().card_at(node, period.begin);
    plan.stints[static_cast<std::size_t>(card)].push_back(
        Stint{node, period.begin, period.end});
  }

  // -------------------------------------------------------------------------
  // Phase A: schedule DBE root strikes (fleet Poisson, weighted nodes).
  // -------------------------------------------------------------------------
  auto dbe_rng = rng.fork("dbe");
  std::vector<HardwareStrike> dbe_strikes;
  dbe_strikes.reserve(static_cast<std::size_t>(
                          1.25 * window_days * 24.0 / model.dbe_mtbf_hours) +
                      16);
  {
    std::vector<double> weights;
    weights.reserve(nodes.size());
    for (const NodeId node : nodes) {
      const CardId card = fleet.ledger().card_at(node, period.begin);
      const auto loc = topology::locate(node);
      weights.push_back(plan.traits[static_cast<std::size_t>(card)].dbe_weight *
                        topology::thermal_rate_multiplier(params.thermal, loc,
                                                          model.dbe_thermal_factor));
    }
    const stats::DiscreteSampler pick{weights};
    const double rate = 1.0 / (model.dbe_mtbf_hours * 3600.0);
    for (const double t : stats::sample_poisson_process(
             dbe_rng, rate, static_cast<double>(period.begin), static_cast<double>(period.end))) {
      HardwareStrike s;
      s.time = to_timesec(t);
      s.node = nodes[pick(dbe_rng)];
      s.structure = sample_dbe_structure(dbe_rng, model.dbe_device_share);
      if (s.structure == MemoryStructure::kDeviceMemory) {
        s.page = static_cast<std::uint32_t>(dbe_rng.below(model.device_pages));
      }
      dbe_strikes.push_back(s);
    }
    // (time, node) key: equal-timestamp ordering is deterministic by
    // construction, not by the sort implementation's tie behaviour.
    std::stable_sort(dbe_strikes.begin(), dbe_strikes.end(), [](const auto& a, const auto& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.node < b.node;
    });
  }

  // -------------------------------------------------------------------------
  // Phase B: hot-spare workflow (pull cards at the DBE threshold).
  // -------------------------------------------------------------------------
  auto spare_rng = rng.fork("hot-spare");
  std::unordered_map<CardId, std::uint64_t> dbe_count;
  for (const auto& strike : dbe_strikes) {
    const CardId card = fleet.ledger().card_at(strike.node, strike.time);
    if (card == xid::kInvalidCard) continue;
    if (++dbe_count[card] < model.hot_spare_pull_threshold) continue;

    const TimeSec pull_time = strike.time + stats::kSecondsPerDay;
    if (!period.contains(pull_time)) continue;
    // Close the card's stint and swap in a freshly procured spare.
    auto& card_stints = plan.stints[static_cast<std::size_t>(card)];
    if (card_stints.empty() || card_stints.back().to <= pull_time) continue;  // already pulled
    card_stints.back().to = pull_time;

    const CardId spare = fleet.procure();
    fleet.card(spare).set_retired_page_capacity(model.retired_page_capacity);
    auto spare_trait_rng = spare_rng.fork("spare-traits", static_cast<std::uint64_t>(spare));
    plan.traits.push_back(sample_one_card(spare_trait_rng, model));
    plan.stints.emplace_back();
    plan.stints.back().push_back(Stint{strike.node, pull_time, period.end});
    fleet.install(strike.node, spare, pull_time);

    HotSpareAction action;
    action.pulled_at = pull_time;
    action.card = card;
    action.node = strike.node;
    action.replacement = spare;
    // Burn-in in the hot-spare cluster; the RMA decision emerges from the
    // card's latent susceptibility under accelerated stress.
    fleet.card(card).set_health(gpu::CardHealth::kHotSpare);
    auto stress_rng = spare_rng.fork("stress", static_cast<std::uint64_t>(card));
    StressTestParams stress_params;
    stress_params.device_pages = model.device_pages;
    const auto stress = stress_test_card(fleet.card(card),
                                         plan.traits[static_cast<std::size_t>(card)],
                                         stress_params, pull_time, stress_rng);
    // Pass -> re-qualified spare stock (kShelf); fail -> RMA'd to the
    // vendor.  Either way the card does not return to production here.
    action.failed_stress = stress.returned_to_vendor;
    plan.hot_spare_actions.push_back(action);
  }

  // -------------------------------------------------------------------------
  // Phase C: Off-the-bus strikes.
  // -------------------------------------------------------------------------
  auto otb_rng = rng.fork("otb");
  plan.otb_strikes.reserve(static_cast<std::size_t>(
                               1.25 * (static_cast<double>(nodes.size()) *
                                           model.otb_defect_probability *
                                           model.otb_manifest_probability +
                                       model.otb_residual_per_day * window_days)) +
                           16);
  {
    // Epidemic era: each defective original card may manifest once, with
    // probability scaled by its cage temperature (normalized to the middle
    // cage so the fleet-average stays near the calibrated value).
    for (const NodeId node : nodes) {
      const CardId card = fleet.ledger().card_at(node, period.begin);
      if (!plan.traits[static_cast<std::size_t>(card)].solder_defect) continue;
      const auto loc = topology::locate(node);
      auto mid = loc;
      mid.cage = 1;
      const double scale =
          topology::thermal_rate_multiplier(params.thermal, loc, model.otb_thermal_factor) /
          topology::thermal_rate_multiplier(params.thermal, mid, model.otb_thermal_factor);
      auto card_rng = otb_rng.fork("epidemic", static_cast<std::uint64_t>(card));
      if (!card_rng.bernoulli(std::min(0.95, model.otb_manifest_probability * scale))) continue;
      HardwareStrike s;
      s.time = sample_epidemic_time(period, timeline.solder_fix, card_rng);
      s.node = node;
      plan.otb_strikes.push_back(s);
    }
    // Post-rework residual trickle.
    for (const double t : stats::sample_poisson_process(
             otb_rng, model.otb_residual_per_day / kSecondsPerDayD,
             static_cast<double>(timeline.solder_fix), static_cast<double>(period.end))) {
      HardwareStrike s;
      s.time = to_timesec(t);
      s.node = nodes[otb_rng.below(nodes.size())];
      plan.otb_strikes.push_back(s);
    }
    std::stable_sort(plan.otb_strikes.begin(), plan.otb_strikes.end(),
                     [](const auto& a, const auto& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.node < b.node;
                     });
  }

  // Index DBE strikes and crash reboots by node for phase D's per-card
  // stint scans.
  for (const auto& s : dbe_strikes) {
    plan.dbe_by_node[s.node].push_back(s);
    plan.crash_reboots[s.node].push_back(s.time + 600);  // warm boot after DBE
  }
  for (const auto& s : plan.otb_strikes) {
    plan.crash_reboots[s.node].push_back(s.time + stats::kSecondsPerDay);  // repair
  }
  plan.maintenance = maintenance_reboots(period, model.maintenance_day_of_month);
  return plan;
}

std::vector<CardStream> run_card_streams(const CampaignSchedule& plan, gpu::Fleet& fleet,
                                         const sched::JobTrace& trace,
                                         std::size_t first_card, std::size_t last_card,
                                         bool collect_sbe) {
  if (last_card > plan.traits.size() || first_card > last_card) {
    throw std::invalid_argument{"run_card_streams: card range out of bounds"};
  }
  const auto& period = plan.params.period;
  const auto& timeline = plan.params.timeline;
  const FaultModelParams& model = plan.params.model;
  // Repair recording events: XID 63/64 page retirement on Titan, row
  // remapping (REMAP/REMAPF) on row-remapping fleets.  Same mechanism,
  // different console vocabulary.
  const bool remap = model.repair_policy == MemoryRepairPolicy::kRowRemapping;
  const ErrorKind repair_recorded = remap ? ErrorKind::kRowRemap : ErrorKind::kPageRetirement;
  const ErrorKind repair_failed =
      remap ? ErrorKind::kRowRemapFailed : ErrorKind::kPageRetirementFailed;

  enum class OpKind : std::uint8_t { kEnableRetirement, kReboot, kSbe, kDbe };
  struct Op {
    TimeSec time = 0;
    OpKind kind = OpKind::kSbe;
    MemoryStructure structure = MemoryStructure::kNone;
    std::uint32_t page = 0;
    bool weak = false;
    NodeId node = topology::kInvalidNode;
  };

  // GPU-activity thinning for SBE strikes: busy silicon accumulates more
  // strikes than parked silicon (the mechanism behind Fig. 19's core-hour
  // correlation beating Fig. 18's node-count one).
  const auto sbe_acceptance = [&](NodeId node, TimeSec when) {
    const xid::JobId job = trace.job_at(node, when);
    if (job == xid::kNoJob) return model.sbe_idle_acceptance;
    const auto& record = trace.job(job);
    const double node_hours =
        static_cast<double>(record.node_count()) * record.wall_hours();
    const double duty =
        node_hours > 0.0 ? std::clamp(record.gpu_core_hours / node_hours, 0.0, 1.0) : 0.0;
    return model.sbe_idle_acceptance + model.sbe_duty_acceptance * duty;
  };

  // Each card owns its forked `ecc/card/<serial>` stream, its own GpuCard
  // and its own output vectors, so cards are processed concurrently and
  // the result is independent of thread count -- and of how the fleet is
  // partitioned into ranges -- by construction.
  auto ecc_rng = plan.rng.fork("ecc");
  const auto process_card = [&](std::size_t serial) -> CardStream {
    CardStream out;
    const CardTraits& trait = plan.traits[serial];
    gpu::GpuCard& card = fleet.card(static_cast<CardId>(serial));
    auto card_rng = ecc_rng.fork("card", serial);

    std::vector<Op> ops;
    ops.reserve(plan.maintenance.size() + 4 * trait.weak_cells.size() + 8);
    bool card_has_dbe = false;
    for (const Stint& stint : plan.stints[serial]) {
      const auto from_d = static_cast<double>(stint.from);
      const auto to_d = static_cast<double>(stint.to);
      // Background SBEs.
      if (trait.background_sbe_per_day > 0.0) {
        for (const double t : stats::sample_poisson_process(
                 card_rng, trait.background_sbe_per_day / kSecondsPerDayD, from_d, to_d)) {
          if (!card_rng.bernoulli(sbe_acceptance(stint.node, to_timesec(t)))) continue;
          Op op;
          op.time = to_timesec(t);
          op.kind = OpKind::kSbe;
          op.structure = sample_sbe_structure(card_rng);
          if (op.structure == MemoryStructure::kDeviceMemory) {
            op.page = static_cast<std::uint32_t>(card_rng.below(model.device_pages));
          }
          op.node = stint.node;
          ops.push_back(op);
        }
      }
      // Weak cells.
      for (const WeakCell& cell : trait.weak_cells) {
        for (const double t : stats::sample_poisson_process(
                 card_rng, cell.sbe_per_day / kSecondsPerDayD, from_d, to_d)) {
          if (!card_rng.bernoulli(sbe_acceptance(stint.node, to_timesec(t)))) continue;
          Op op;
          op.time = to_timesec(t);
          op.kind = OpKind::kSbe;
          op.structure = cell.structure;
          op.page = cell.page;
          op.weak = true;
          op.node = stint.node;
          ops.push_back(op);
        }
      }
      // DBE strikes landing on this card's stint.
      if (const auto it = plan.dbe_by_node.find(stint.node); it != plan.dbe_by_node.end()) {
        for (const auto& s : it->second) {
          if (s.time < stint.from || s.time >= stint.to) continue;
          Op op;
          op.time = s.time;
          op.kind = OpKind::kDbe;
          op.structure = s.structure;
          op.page = s.page;
          op.node = stint.node;
          ops.push_back(op);
          card_has_dbe = true;
        }
      }
      // Reboots seen by this card.
      const auto add_reboot = [&](TimeSec t) {
        if (t < stint.from || t >= stint.to) return;
        Op op;
        op.time = t;
        op.kind = OpKind::kReboot;
        op.node = stint.node;
        ops.push_back(op);
      };
      for (const TimeSec t : plan.maintenance) add_reboot(t);
      if (const auto it = plan.crash_reboots.find(stint.node); it != plan.crash_reboots.end()) {
        for (const TimeSec t : it->second) add_reboot(t);
      }
    }
    if (ops.empty() && !card_has_dbe) return out;
    if (timeline.retirement_enabled(period.begin)) {
      card.retirement().set_enabled(true);
    } else {
      Op op;
      op.time = timeline.new_driver;
      op.kind = OpKind::kEnableRetirement;
      ops.push_back(op);
    }
    std::stable_sort(ops.begin(), ops.end(),
                     [](const Op& a, const Op& b) { return a.time < b.time; });

    for (const Op& op : ops) {
      switch (op.kind) {
        case OpKind::kEnableRetirement:
          card.retirement().set_enabled(true);
          break;
        case OpKind::kReboot:
          card.on_reboot();
          break;
        case OpKind::kSbe: {
          const bool device = op.structure == MemoryStructure::kDeviceMemory;
          if (device && card.retirement().page_blacklisted(op.page)) {
            break;  // the weak page is retired: the cell is silent now
          }
          const auto outcome = card.record_sbe(
              op.structure, device ? std::optional<std::uint32_t>{op.page} : std::nullopt,
              op.time);
          if (collect_sbe) {
            SbeStrike strike;
            strike.time = op.time;
            strike.node = op.node;
            strike.card = static_cast<CardId>(serial);
            strike.structure = op.structure;
            strike.page = op.page;
            strike.from_weak_cell = op.weak;
            out.sbe_strikes.push_back(strike);
          }
          if (outcome.retirement) {
            const TimeSec when = op.time + 5 + static_cast<TimeSec>(card_rng.below(55));
            if (period.contains(when)) {
              Event ev;
              ev.time = when;
              ev.node = op.node;
              ev.card = static_cast<CardId>(serial);
              ev.kind = outcome.retirement_recorded ? repair_recorded : repair_failed;
              ev.structure = MemoryStructure::kDeviceMemory;
              out.events.push_back(ev);
            }
          }
          break;
        }
        case OpKind::kDbe: {
          const bool device = op.structure == MemoryStructure::kDeviceMemory;
          const bool commit = !card_rng.bernoulli(model.dbe_inforom_loss_probability);
          const auto outcome = card.record_dbe(
              op.structure, device ? std::optional<std::uint32_t>{op.page} : std::nullopt,
              op.time, commit);
          Event dbe_ev;
          dbe_ev.time = op.time;
          dbe_ev.node = op.node;
          dbe_ev.card = static_cast<CardId>(serial);
          dbe_ev.kind = ErrorKind::kDoubleBitError;
          dbe_ev.structure = op.structure;
          out.events.push_back(dbe_ev);
          const auto dbe_index = static_cast<std::int64_t>(out.events.size()) - 1;

          if (outcome.retirement && card_rng.bernoulli(model.retirement_logged_after_dbe)) {
            const TimeSec when =
                op.time + 30 +
                static_cast<TimeSec>(card_rng.below(
                    static_cast<std::uint64_t>(model.retirement_fast_max_s - 30.0)));
            if (period.contains(when)) {
              Event ev;
              ev.time = when;
              ev.node = op.node;
              ev.card = static_cast<CardId>(serial);
              ev.kind = (outcome.retirement_recorded || !commit) ? repair_recorded
                                                                 : repair_failed;
              ev.structure = MemoryStructure::kDeviceMemory;
              ev.parent = dbe_index;
              out.events.push_back(ev);
            }
          }
          // Preemptive cleanup often follows a DBE (Fig. 13: 48 -> 45).
          if (card_rng.bernoulli(model.dbe_followed_by_45)) {
            const TimeSec when = op.time + 1 + static_cast<TimeSec>(card_rng.below(119));
            if (period.contains(when)) {
              Event ev;
              ev.time = when;
              ev.node = op.node;
              ev.card = static_cast<CardId>(serial);
              ev.kind = ErrorKind::kPreemptiveCleanup;
              ev.parent = dbe_index;
              out.events.push_back(ev);
            }
          }
          break;
        }
      }
    }
    return out;
  };
  return par::parallel_map(first_card, last_card, kCardGrain, process_card);
}

TailStream run_campaign_tail(const CampaignSchedule& plan, const gpu::Fleet& fleet,
                             const sched::JobTrace& trace) {
  const auto& period = plan.params.period;
  const auto& timeline = plan.params.timeline;
  const FaultModelParams& model = plan.params.model;
  const std::vector<NodeId>& nodes = plan.nodes.empty() ? compute_nodes() : plan.nodes;
  const double window_days = static_cast<double>(period.duration()) / kSecondsPerDayD;

  TailStream result;

  auto sw_rng = plan.rng.fork("software");
  const auto& jobs = trace.jobs();

  // Debug-job crashes: user-application XIDs reported on every node of the
  // job within the five-second propagation window (Observation 7).  Each
  // job draws only from its own `software/debug-job/<id>` fork, so jobs
  // are generated concurrently; parent links are local to each job's
  // vector and rebased on concatenation.
  const auto process_job = [&](std::size_t j) -> std::vector<Event> {
    std::vector<Event> out;
    const auto& job = jobs[j];
    if (!job.debug || job.nodes.empty()) return out;
    auto job_rng = sw_rng.fork("debug-job", static_cast<std::uint64_t>(job.id));
    const double u = job_rng.uniform();
    ErrorKind kind{};
    if (u < model.debug_job_xid13_probability) {
      kind = ErrorKind::kGraphicsEngineException;
    } else if (u < model.debug_job_xid13_probability + model.debug_job_xid31_probability) {
      kind = ErrorKind::kMemoryPageFault;
    } else {
      return out;  // crashed CPU-side or exited cleanly after debugging
    }
    const TimeSec crash = std::max(job.start + 1, job.end - 2);
    const std::size_t root_pick = job_rng.below(job.nodes.size());

    Event root;
    root.time = crash;
    root.node = job.nodes[root_pick];
    root.kind = kind;
    root.job = job.id;
    root.user = job.user;
    out.push_back(root);
    const std::int64_t root_index = 0;

    std::size_t i = 0;
    for (const NodeId node : job.nodes) {
      if (i++ == root_pick) continue;
      Event child = root;
      child.node = node;
      child.time = crash + static_cast<TimeSec>(
                               job_rng.below(static_cast<std::uint64_t>(model.job_propagation_window_s)));
      child.parent = root_index;
      out.push_back(child);
    }
    if (kind == ErrorKind::kGraphicsEngineException &&
        job_rng.bernoulli(model.xid13_followed_by_43)) {
      Event follow = root;
      follow.kind = ErrorKind::kGpuStoppedProcessing;
      follow.time = crash + 1 + static_cast<TimeSec>(job_rng.below(59));
      follow.parent = root_index;
      out.push_back(follow);
      const auto follow_index = static_cast<std::int64_t>(out.size()) - 1;
      if (job_rng.bernoulli(model.xid43_followed_by_45)) {
        Event cleanup = follow;
        cleanup.kind = ErrorKind::kPreemptiveCleanup;
        cleanup.time = follow.time + 1 + static_cast<TimeSec>(job_rng.below(30));
        cleanup.parent = follow_index;
        out.push_back(cleanup);
      }
    }
    return out;
  };
  const std::vector<std::vector<Event>> per_job =
      par::parallel_map(0, jobs.size(), kJobGrain, process_job);
  std::size_t debug_event_total = 0;
  for (const auto& job_events : per_job) debug_event_total += job_events.size();

  // The OTB/software "tail" stream: everything that is not per-card ECC
  // output, in the provisional order OTB -> debug jobs -> driver streams
  // -> bad node.  Parent links are local to this vector.
  const double old_driver_days =
      std::max(0.0, static_cast<double>(timeline.new_driver - period.begin)) / kSecondsPerDayD;
  const double new_driver_days =
      std::max(0.0, static_cast<double>(period.end - timeline.new_driver)) / kSecondsPerDayD;
  const auto fixed_totals = static_cast<std::size_t>(
      model.xid32_total + model.xid38_total + model.xid42_total + model.xid56_total +
      model.xid57_total + model.xid58_total + model.xid65_total);
  std::vector<Event>& tail = result.events;
  tail.reserve(plan.otb_strikes.size() + debug_event_total + fixed_totals +
               static_cast<std::size_t>(
                   1.25 * ((model.xid43_per_day + model.xid44_per_day) * window_days +
                           model.xid59_per_day_old_driver * old_driver_days +
                           model.xid62_per_day_new_driver * new_driver_days +
                           1.5 * model.bad_node_xid13_per_day * 31.0 *
                               static_cast<double>(model.bad_node_active_months))) +
               64);

  // OTB events (app-fatal, isolated; no InfoROM involvement).
  for (const auto& s : plan.otb_strikes) {
    Event ev;
    ev.time = s.time;
    ev.node = s.node;
    ev.card = fleet.ledger().card_at(s.node, s.time);
    ev.kind = ErrorKind::kOffTheBus;
    tail.push_back(ev);
  }
  for (const auto& job_events : per_job) {
    const auto base = static_cast<std::int64_t>(tail.size());
    for (Event ev : job_events) {
      if (ev.parent >= 0) ev.parent += base;
      tail.push_back(ev);
    }
  }

  // Sparse driver errors: independent Poisson streams on random nodes.
  const auto emit_poisson_kind = [&](ErrorKind kind, double per_day, TimeSec from, TimeSec to) {
    if (to <= from || per_day <= 0.0) return;
    for (const double t : stats::sample_poisson_process(sw_rng, per_day / kSecondsPerDayD,
                                                        static_cast<double>(from),
                                                        static_cast<double>(to))) {
      Event ev;
      ev.time = to_timesec(t);
      ev.node = nodes[sw_rng.below(nodes.size())];
      ev.kind = kind;
      tail.push_back(ev);
    }
  };
  const auto emit_fixed_total = [&](ErrorKind kind, int total) {
    for (int i = 0; i < total; ++i) {
      Event ev;
      ev.time = period.begin + static_cast<TimeSec>(
                                   sw_rng.below(static_cast<std::uint64_t>(period.duration())));
      ev.node = nodes[sw_rng.below(nodes.size())];
      ev.kind = kind;
      tail.push_back(ev);
    }
  };
  emit_poisson_kind(ErrorKind::kGpuStoppedProcessing, model.xid43_per_day, period.begin, period.end);
  emit_poisson_kind(ErrorKind::kCtxSwitchFault, model.xid44_per_day, period.begin, period.end);
  emit_poisson_kind(ErrorKind::kUcHaltOldDriver, model.xid59_per_day_old_driver, period.begin,
                    timeline.new_driver);
  emit_poisson_kind(ErrorKind::kUcHaltNewDriver, model.xid62_per_day_new_driver, timeline.new_driver,
                    period.end);
  emit_fixed_total(ErrorKind::kCorruptedPushBuffer, model.xid32_total);
  emit_fixed_total(ErrorKind::kDriverFirmware, model.xid38_total);
  emit_fixed_total(ErrorKind::kVideoProcessorDriver, model.xid42_total);  // zero: never observed
  emit_fixed_total(ErrorKind::kDisplayEngine, model.xid56_total);
  emit_fixed_total(ErrorKind::kVideoMemProgramming, model.xid57_total);
  emit_fixed_total(ErrorKind::kUnstableVideoMem, model.xid58_total);
  emit_fixed_total(ErrorKind::kVideoProcessorHw, model.xid65_total);

  // Post-Titan fleet processes, each on its OWN named fork: adding them
  // never perturbs the `software` stream, so the K20X profile (rates 0)
  // reproduces the pre-profile campaign byte for byte.
  if (model.nvlink_per_day > 0.0) {
    auto link_rng = plan.rng.fork("nvlink");
    for (const double t : stats::sample_poisson_process(
             link_rng, model.nvlink_per_day / kSecondsPerDayD,
             static_cast<double>(period.begin), static_cast<double>(period.end))) {
      Event ev;
      ev.time = to_timesec(t);
      ev.node = nodes[link_rng.below(nodes.size())];
      ev.kind = ErrorKind::kNvLinkError;
      tail.push_back(ev);
    }
  }
  if (model.sdc_per_day > 0.0) {
    auto sdc_rng = plan.rng.fork("sdc");
    for (const double t : stats::sample_poisson_process(
             sdc_rng, model.sdc_per_day / kSecondsPerDayD,
             static_cast<double>(period.begin), static_cast<double>(period.end))) {
      Event ev;
      ev.time = to_timesec(t);
      ev.node = nodes[sdc_rng.below(nodes.size())];
      ev.kind = ErrorKind::kSilentDataCorruption;
      ev.structure = MemoryStructure::kDeviceMemory;
      tail.push_back(ev);
    }
  }

  // The Observation 8 anecdote: one node raising XID 13 regardless of the
  // application -- a hardware fault masquerading as a user error.
  if (plan.params.include_bad_node_anecdote) {
    auto bad_rng = plan.rng.fork("bad-node");
    result.bad_node = nodes[bad_rng.below(nodes.size())];
    const TimeSec active_from = stats::month_start(
        period.begin, period.months() - model.bad_node_active_months);
    for (const double t : stats::sample_poisson_process(
             bad_rng, model.bad_node_xid13_per_day / kSecondsPerDayD, static_cast<double>(active_from),
             static_cast<double>(period.end))) {
      Event ev;
      ev.time = to_timesec(t);
      ev.node = result.bad_node;
      ev.kind = ErrorKind::kGraphicsEngineException;
      tail.push_back(ev);
      if (bad_rng.bernoulli(0.5)) {
        Event follow = ev;
        follow.kind = ErrorKind::kGpuStoppedProcessing;
        follow.time = ev.time + 1 + static_cast<TimeSec>(bad_rng.below(30));
        follow.parent = static_cast<std::int64_t>(tail.size()) - 1;
        tail.push_back(follow);
      }
    }
  }
  return result;
}

std::vector<std::uint32_t> stable_time_order(std::span<const TimeSec> times) {
  if (times.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error{"stable_time_order: more than 2^32 entries"};
  }
  if (times.empty()) return {};
  const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
  const std::uint64_t span = static_cast<std::uint64_t>(*hi) - static_cast<std::uint64_t>(*lo);
  const int passes = (static_cast<int>(std::bit_width(span)) + kDigitBits - 1) / kDigitBits;
  return span <= std::numeric_limits<std::uint32_t>::max()
             ? radix_time_order<std::uint32_t>(times, *lo, passes)
             : radix_time_order<std::uint64_t>(times, *lo, passes);
}

OrderedStreams order_streams(std::vector<CardStream>& cards, std::vector<Event> tail,
                             TimeSec last_time) {
  OrderedStreams out;
  for (auto& card : cards) {
    const auto base = static_cast<std::int64_t>(out.head.size());
    for (Event ev : card.events) {
      if (ev.parent >= 0) ev.parent += base;
      out.head.push_back(ev);
    }
    card.events = {};
  }
  out.tail = std::move(tail);
  std::vector<TimeSec> times;
  times.reserve(out.head.size() + out.tail.size());
  for (auto& ev : out.head) {
    ev.time = std::min(ev.time, last_time);
    times.push_back(ev.time);
  }
  const auto base = static_cast<std::int64_t>(out.head.size());
  for (auto& ev : out.tail) {
    if (ev.parent >= 0) ev.parent += base;
    ev.time = std::min(ev.time, last_time);
    times.push_back(ev.time);
  }
  out.order = stable_time_order(times);
  return out;
}

CampaignResult run_fault_campaign(gpu::Fleet& fleet, std::vector<CardTraits> traits,
                                  const sched::JobTrace& trace, const CampaignParams& params,
                                  stats::Rng rng) {
  if (fleet.card_count() != traits.size()) {
    throw std::invalid_argument{"run_fault_campaign: traits must match fleet size"};
  }
  // Phases A-C: resolve the plan (named forks make phase streams
  // independent of each other and of the partitioning below).
  return run_fault_campaign(plan_fault_campaign(fleet, std::move(traits), params, rng), fleet,
                            trace);
}

CampaignResult run_fault_campaign(CampaignSchedule plan, gpu::Fleet& fleet,
                                  const sched::JobTrace& trace) {
  const auto& period = plan.params.period;

  // Phase D over the whole fleet, phase E once.
  std::vector<CardStream> per_card =
      run_card_streams(plan, fleet, trace, 0, plan.card_count(), /*collect_sbe=*/true);
  TailStream tail = run_campaign_tail(plan, fleet, trace);

  CampaignResult result;
  result.bad_node = tail.bad_node;
  result.hot_spare_actions = std::move(plan.hot_spare_actions);

  // -------------------------------------------------------------------------
  // Phase F: one stable time order, then attribution in the gather.
  // -------------------------------------------------------------------------
  const auto streams = order_streams(per_card, std::move(tail.events), period.end - 1);
  const std::size_t total_events = streams.order.size();
  std::vector<std::uint32_t> new_index(total_events);
  for (std::size_t i = 0; i < total_events; ++i) {
    new_index[streams.order[i]] = static_cast<std::uint32_t>(i);
  }
  // Both lookups are read-only and each slot is written once, so the
  // gather runs in parallel chunks.
  result.events.resize(total_events);
  par::parallel_for(0, total_events, kEventGrain, [&](std::size_t i) {
    Event ev = streams[streams.order[i]];
    if (ev.parent >= 0) ev.parent = new_index[static_cast<std::size_t>(ev.parent)];
    if (ev.job == xid::kNoJob) {
      ev.job = trace.job_at(ev.node, ev.time);
      if (ev.job != xid::kNoJob) ev.user = trace.job(ev.job).user;
    }
    if (ev.card == xid::kInvalidCard) ev.card = fleet.ledger().card_at(ev.node, ev.time);
    result.events[i] = ev;
  });

  // SBE strikes: the same stable time order over the cards' concatenated
  // strikes is (time, card), each card's strikes being chronological.
  std::vector<SbeStrike> strikes;
  std::vector<TimeSec> strike_times;
  for (const auto& card_out : per_card) {
    strikes.insert(strikes.end(), card_out.sbe_strikes.begin(), card_out.sbe_strikes.end());
  }
  strike_times.reserve(strikes.size());
  for (const auto& strike : strikes) strike_times.push_back(strike.time);
  result.sbe_strikes.reserve(strikes.size());
  for (const std::uint32_t i : stable_time_order(strike_times)) {
    result.sbe_strikes.push_back(strikes[i]);
  }

  result.traits = std::move(plan.traits);
  return result;
}

}  // namespace titan::fault
