// Fault-campaign orchestration: turns the latent card traits, the job
// trace and the operational timeline into the ground-truth event streams
// that the logging emitters serialize and the analyses consume.
//
// Responsibilities (each maps to a paper finding):
//  * fleet-level DBE process with per-card susceptibility and cage thermal
//    weighting (Figs. 2-3, Obs. 1/3),
//  * the 2013 Off-the-bus solder epidemic and its Dec'2013 resolution
//    (Figs. 4-5, Obs. 4),
//  * per-card SBE accrual -- background plus weak cells -- fed through the
//    page-retirement engine with reboot-deferred blacklisting
//    (Figs. 6-8 and 14-15, Obs. 5/10/11),
//  * user-application and driver XID generation, with job-wide
//    propagation and follow-on cascades (Figs. 9-13, Obs. 6-9),
//  * the hot-spare card workflow (Sect. 3.1 operations),
//  * InfoROM commit loss on fast node death (Obs. 2).
//
// The campaign is split into three pieces so shard drivers
// (core::ShardedStudy) can generate any contiguous card range in
// isolation with bounded memory:
//
//   plan_fault_campaign   phases A-C: root hardware strikes, the hot-spare
//                         workflow and the reboot calendar, resolved into
//                         an immutable CampaignSchedule (mutates the fleet
//                         roster once, up front);
//   run_card_streams      phase D over [first_card, last_card): per-card
//                         chronological ECC processing.  Cards touch only
//                         their own GpuCard and their own `ecc/card/<n>`
//                         RNG fork, so ranges compose: the union of any
//                         disjoint cover equals the full-fleet run;
//   run_campaign_tail     phase E: OTB, debug-job, driver and bad-node
//                         events (one stream, appended after the cards in
//                         the provisional order).
//
// run_fault_campaign composes all three plus phase F: one stable time
// order over the provisional concatenation (order_streams), then job,
// user and card attribution.  It is byte-identical to the pre-split
// implementation.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "fault/calibration.hpp"
#include "fault/model_params.hpp"
#include "fault/propensity.hpp"
#include "fault/timeline.hpp"
#include "gpu/fleet.hpp"
#include "sched/workload.hpp"
#include "stats/rng.hpp"
#include "topology/thermal.hpp"
#include "xid/event.hpp"

namespace titan::fault {

/// One corrected single-bit error (ground truth; SBEs never reach the
/// console log -- only InfoROM counters and the per-job snapshot
/// framework observe them).
struct SbeStrike {
  stats::TimeSec time = 0;
  topology::NodeId node = topology::kInvalidNode;
  xid::CardId card = xid::kInvalidCard;
  xid::MemoryStructure structure = xid::MemoryStructure::kL2Cache;
  std::uint32_t page = 0;       ///< device-memory strikes only
  bool from_weak_cell = false;
};

/// One pass of the hot-spare workflow.
struct HotSpareAction {
  stats::TimeSec pulled_at = 0;
  xid::CardId card = xid::kInvalidCard;
  topology::NodeId node = topology::kInvalidNode;
  bool failed_stress = false;        ///< true -> returned to vendor
  xid::CardId replacement = xid::kInvalidCard;
};

struct CampaignParams {
  stats::StudyPeriod period{};
  DriverTimeline timeline{};
  topology::ThermalModel thermal{};
  FaultModelParams model{};               ///< calibrated rates (ablation knobs)
  bool include_bad_node_anecdote = true;  ///< the Observation 8 node
};

struct CampaignResult {
  std::vector<xid::Event> events;          ///< console-visible, time-sorted
  std::vector<SbeStrike> sbe_strikes;      ///< time-sorted
  std::vector<HotSpareAction> hot_spare_actions;
  std::vector<CardTraits> traits;          ///< by card serial (incl. spares)
  topology::NodeId bad_node = topology::kInvalidNode;  ///< Obs. 8 anecdote
};

/// A card's tenure in a node.
struct Stint {
  topology::NodeId node = topology::kInvalidNode;
  stats::TimeSec from = 0;
  stats::TimeSec to = 0;
};

/// A root hardware strike scheduled in phase A/C, fed through the cards
/// in phase D.
struct HardwareStrike {
  stats::TimeSec time = 0;
  topology::NodeId node = topology::kInvalidNode;
  xid::MemoryStructure structure = xid::MemoryStructure::kNone;
  std::uint32_t page = 0;
};

/// The resolved campaign plan (phases A-C).  Immutable once built: phase
/// D reads it per card and phase E reads it once, so any card partition
/// yields the same streams.  The unordered maps are keyed lookups only --
/// never iterated -- so they impose no ordering on the output.
struct CampaignSchedule {
  CampaignParams params{};
  stats::Rng rng{0};  ///< campaign root; phases fork their named streams
  /// Populated compute nodes (ascending) -- the card-bearing roster the
  /// hardware phases draw from.  Equals every compute node at
  /// fleet_node_fraction 1.0; a prefix of the machine otherwise.
  std::vector<topology::NodeId> nodes;
  std::vector<CardTraits> traits;          ///< by serial, incl. spares
  std::vector<std::vector<Stint>> stints;  ///< by serial
  std::vector<HardwareStrike> otb_strikes;               ///< (time, node)-sorted
  std::unordered_map<topology::NodeId, std::vector<HardwareStrike>> dbe_by_node;
  std::unordered_map<topology::NodeId, std::vector<stats::TimeSec>> crash_reboots;
  std::vector<stats::TimeSec> maintenance;  ///< monthly reboot instants
  std::vector<HotSpareAction> hot_spare_actions;

  [[nodiscard]] std::size_t card_count() const noexcept { return traits.size(); }
};

/// Per-card output of phase D.  Event parent links are indices local to
/// `events`; order_streams rebases them into the global provisional
/// index space.
struct CardStream {
  std::vector<xid::Event> events;
  std::vector<SbeStrike> sbe_strikes;  ///< time-sorted (ops run in time order)
};

/// The phase E output: everything that is not per-card ECC output, in the
/// provisional order OTB -> debug jobs -> driver streams -> bad node.
/// Parent links are local to `events`.
struct TailStream {
  std::vector<xid::Event> events;
  topology::NodeId bad_node = topology::kInvalidNode;
};

/// Populate an empty fleet: procure and install one card per compute node
/// at `when`, sampling latent traits.  Returns the traits by serial.
[[nodiscard]] std::vector<CardTraits> initialize_fleet(
    gpu::Fleet& fleet, stats::TimeSec when, stats::Rng rng,
    const FaultModelParams& model = FaultModelParams{});

/// Phases A-C: schedule DBE root strikes, run the hot-spare workflow
/// (procuring spares and mutating the fleet roster) and schedule OTB
/// strikes plus the reboot calendar.  Deterministic in all inputs.
[[nodiscard]] CampaignSchedule plan_fault_campaign(gpu::Fleet& fleet,
                                                   std::vector<CardTraits> traits,
                                                   const CampaignParams& params,
                                                   stats::Rng rng);

/// Phase D over the card-serial range [first_card, last_card): per-card
/// chronological ECC processing (parallel, one `ecc/card/<serial>` fork
/// per card).  Mutates only the cards in the range; disjoint ranges
/// compose to the full-fleet result regardless of call order.  Pass
/// `collect_sbe = false` to skip materializing the (large) SBE ground
/// truth while still driving the retirement engines identically.
[[nodiscard]] std::vector<CardStream> run_card_streams(const CampaignSchedule& plan,
                                                       gpu::Fleet& fleet,
                                                       const sched::JobTrace& trace,
                                                       std::size_t first_card,
                                                       std::size_t last_card,
                                                       bool collect_sbe = true);

/// Phase E: software / firmware / application XIDs and the OTB event
/// stream.  Reads the fleet ledger (attribution) but mutates nothing.
[[nodiscard]] TailStream run_campaign_tail(const CampaignSchedule& plan,
                                           const gpu::Fleet& fleet,
                                           const sched::JobTrace& trace);

/// The stable time order of `times`: the indices 0..n-1 ordered by
/// (times[i], i).  An LSD radix sort on `time - min` in 13-bit digits,
/// one counting pass per digit of the span, so the order is structural
/// (index order breaks every tie) and independent of the thread count.
[[nodiscard]] std::vector<std::uint32_t> stable_time_order(
    std::span<const stats::TimeSec> times);

/// A campaign's event streams read as one time-ordered sequence.
struct OrderedStreams {
  /// The provisional concatenation is `head` (every card stream's events
  /// in card order) followed by `tail`; parent links index into it.
  std::vector<xid::Event> head;
  std::vector<xid::Event> tail;
  /// Provisional indices in stable (time, provisional index) order.
  std::vector<std::uint32_t> order;

  /// Event `i` of the provisional concatenation.
  [[nodiscard]] const xid::Event& operator[](std::size_t i) const {
    return i < head.size() ? head[i] : tail[i - head.size()];
  }
};

/// Concatenate the card streams (their events are moved out) and `tail`
/// in provisional order, rebase every parent link into the
/// concatenation, clamp every time to at most `last_time` (child and
/// follow-on jitter can spill past the study window; the console log
/// stops at its end), and return them with their stable time order.  The
/// campaign and the shard driver both order their streams here, so the
/// sharded stream equals the unsharded one byte for byte.
[[nodiscard]] OrderedStreams order_streams(std::vector<CardStream>& cards,
                                           std::vector<xid::Event> tail,
                                           stats::TimeSec last_time);

/// Run the full fault campaign.  `fleet` must have been initialized; its
/// cards' InfoROMs and retirement engines are mutated to their
/// end-of-campaign state.  Deterministic in all inputs.  Equivalent to
/// plan + run_card_streams over all cards + tail + order_streams +
/// attribution.
[[nodiscard]] CampaignResult run_fault_campaign(gpu::Fleet& fleet,
                                                std::vector<CardTraits> traits,
                                                const sched::JobTrace& trace,
                                                const CampaignParams& params, stats::Rng rng);

/// The same campaign from a plan already built by plan_fault_campaign on
/// `fleet` (phases D-F).
[[nodiscard]] CampaignResult run_fault_campaign(CampaignSchedule plan, gpu::Fleet& fleet,
                                                const sched::JobTrace& trace);

}  // namespace titan::fault
