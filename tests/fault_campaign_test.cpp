#include "fault/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <queue>
#include <unordered_set>

#include "core/facility.hpp"
#include "stats/rng.hpp"

namespace titan::fault {
namespace {

using stats::TimeSec;
using xid::ErrorKind;
using xid::Event;

/// One shared quick study for all campaign tests (3 months, full machine).
const core::StudyDataset& dataset() {
  static const core::StudyDataset data = core::run_study(core::quick_config(21));
  return data;
}

TEST(Campaign, EventsAreTimeSortedAndInWindow) {
  const auto& events = dataset().events;
  ASSERT_FALSE(events.empty());
  const auto& period = dataset().config.period;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(events[i - 1].time, events[i].time);
    }
    EXPECT_GE(events[i].time, period.begin);
    EXPECT_LT(events[i].time, period.end);
  }
}

TEST(Campaign, ParentsPrecedeChildren) {
  const auto& events = dataset().events;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].parent < 0) continue;
    const auto p = static_cast<std::size_t>(events[i].parent);
    ASSERT_LT(p, events.size());
    EXPECT_LE(events[p].time, events[i].time);
  }
}

TEST(Campaign, UserAppErrorsPropagateWithinFiveSeconds) {
  // Observation 7.
  const auto& events = dataset().events;
  for (const auto& e : events) {
    if (e.parent < 0 || e.kind != ErrorKind::kGraphicsEngineException) continue;
    const auto& parent = events[static_cast<std::size_t>(e.parent)];
    if (parent.kind != e.kind) continue;  // follow-on of another kind
    EXPECT_LE(e.time - parent.time, 5);
    EXPECT_EQ(e.job, parent.job);
  }
}

TEST(Campaign, ChildrenCoverWholeJob) {
  // Find a root XID 13 with children and verify each job node reported.
  const auto& events = dataset().events;
  const auto& trace = dataset().trace;
  bool verified = false;
  for (std::size_t i = 0; i < events.size() && !verified; ++i) {
    const auto& root = events[i];
    if (root.kind != ErrorKind::kGraphicsEngineException || root.parent >= 0 ||
        root.job == xid::kNoJob) {
      continue;
    }
    const auto& job = trace.job(root.job);
    if (job.nodes.size() < 4 || !job.debug) continue;
    std::unordered_set<topology::NodeId> reported{root.node};
    for (const auto& e : events) {
      if (e.parent == static_cast<std::int64_t>(i) && e.kind == root.kind) {
        reported.insert(e.node);
      }
    }
    EXPECT_EQ(reported.size(), job.nodes.size());
    verified = true;
  }
  EXPECT_TRUE(verified) << "no multi-node debug XID 13 found in quick run";
}

TEST(Campaign, NoSbeEventsInConsoleStream) {
  for (const auto& e : dataset().events) {
    EXPECT_NE(e.kind, ErrorKind::kSingleBitError);
  }
}

TEST(Campaign, DbeCountPlausibleForWindow) {
  // 3 months at one per ~160 h => roughly 13; accept a broad band.
  std::size_t dbe = 0;
  for (const auto& e : dataset().events) {
    if (e.kind == ErrorKind::kDoubleBitError) ++dbe;
  }
  EXPECT_GE(dbe, 4U);
  EXPECT_LE(dbe, 35U);
}

TEST(Campaign, DbeStructuresOnlyDeviceOrRegister) {
  for (const auto& e : dataset().events) {
    if (e.kind != ErrorKind::kDoubleBitError) continue;
    EXPECT_TRUE(e.structure == xid::MemoryStructure::kDeviceMemory ||
                e.structure == xid::MemoryStructure::kRegisterFile);
  }
}

TEST(Campaign, RetirementOnlyAfterNewDriver) {
  const auto new_driver = dataset().config.campaign.timeline.new_driver;
  for (const auto& e : dataset().events) {
    if (e.kind == ErrorKind::kPageRetirement || e.kind == ErrorKind::kPageRetirementFailed) {
      EXPECT_GE(e.time, new_driver);
    }
  }
}

TEST(Campaign, UcHaltXidTracksDriverEra) {
  const auto new_driver = dataset().config.campaign.timeline.new_driver;
  for (const auto& e : dataset().events) {
    if (e.kind == ErrorKind::kUcHaltOldDriver) {
      EXPECT_LT(e.time, new_driver);
    }
    if (e.kind == ErrorKind::kUcHaltNewDriver) {
      EXPECT_GE(e.time, new_driver);
    }
  }
}

TEST(Campaign, OtbCollapsesAfterSolderFix) {
  const auto fix = dataset().config.campaign.timeline.solder_fix;
  std::size_t before = 0;
  std::size_t after = 0;
  for (const auto& e : dataset().events) {
    if (e.kind != ErrorKind::kOffTheBus) continue;
    (e.time < fix ? before : after) += 1;
  }
  EXPECT_GT(before, after);
}

TEST(Campaign, Xid42NeverOccurs) {
  for (const auto& e : dataset().events) {
    EXPECT_NE(e.kind, ErrorKind::kVideoProcessorDriver);
  }
}

TEST(Campaign, EventsCarryCardAttribution) {
  for (const auto& e : dataset().events) {
    EXPECT_NE(e.card, xid::kInvalidCard) << "event on node " << e.node;
  }
}

TEST(Campaign, SbeStrikesSortedAndAttributed) {
  const auto& strikes = dataset().sbe_strikes;
  ASSERT_FALSE(strikes.empty());
  for (std::size_t i = 0; i < strikes.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(strikes[i - 1].time, strikes[i].time);
    }
    EXPECT_NE(strikes[i].card, xid::kInvalidCard);
    EXPECT_FALSE(topology::is_service_node(strikes[i].node));
  }
}

TEST(Campaign, SbeStrikesMatchInfoRomTotals) {
  // Every strike was committed through record_sbe, so fleet totals agree.
  std::uint64_t strike_total = dataset().sbe_strikes.size();
  std::uint64_t inforom_total = 0;
  const auto& fleet = dataset().fleet;
  for (std::size_t s = 0; s < fleet.card_count(); ++s) {
    inforom_total += fleet.card(static_cast<xid::CardId>(s)).inforom().sbe_total();
  }
  EXPECT_EQ(strike_total, inforom_total);
}

TEST(Campaign, HotSpareActionsConsistent) {
  for (const auto& action : dataset().hot_spare_actions) {
    EXPECT_NE(action.card, action.replacement);
    const auto health = dataset().fleet.card(action.card).health();
    // Pulled cards either passed burn-in (back to the shelf as qualified
    // spares) or failed it (RMA'd).
    EXPECT_TRUE(health == gpu::CardHealth::kShelf ||
                health == gpu::CardHealth::kReturnedToVendor);
    EXPECT_EQ(health == gpu::CardHealth::kReturnedToVendor, action.failed_stress);
    // The ledger reflects the swap.
    EXPECT_EQ(dataset().fleet.ledger().card_at(action.node, action.pulled_at),
              action.replacement);
  }
}

TEST(Campaign, DeterministicAcrossRuns) {
  const auto a = core::run_study(core::quick_config(33));
  const auto b = core::run_study(core::quick_config(33));
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); i += 13) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
  }
  EXPECT_EQ(a.sbe_strikes.size(), b.sbe_strikes.size());
}

TEST(Campaign, SeedChangesOutput) {
  const auto a = core::run_study(core::quick_config(1));
  const auto b = core::run_study(core::quick_config(2));
  EXPECT_NE(a.events.size(), b.events.size());
}

// ---------------------------------------------------------------------------
// Phase F oracle: the per-stream stable sort and heap k-way merge that
// run_fault_campaign used before order_streams, kept as the reference
// for the one stable radix time order.
// ---------------------------------------------------------------------------

/// Heap merge of per-stream time-sorted sequences by (time, stream).
template <typename SizeFn, typename TimeFn, typename EmitFn>
void legacy_kway_merge(std::size_t stream_count, const SizeFn& size, const TimeFn& time,
                       const EmitFn& emit) {
  struct Cursor {
    TimeSec time = 0;
    std::uint32_t stream = 0;
    std::uint32_t pos = 0;
  };
  const auto later = [](const Cursor& a, const Cursor& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.stream > b.stream;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap{later};
  for (std::size_t s = 0; s < stream_count; ++s) {
    if (size(s) > 0) heap.push(Cursor{time(s, 0), static_cast<std::uint32_t>(s), 0});
  }
  while (!heap.empty()) {
    const Cursor top = heap.top();
    heap.pop();
    emit(top.stream, top.pos);
    const std::size_t next = static_cast<std::size_t>(top.pos) + 1;
    if (next < size(top.stream)) {
      heap.push(Cursor{time(top.stream, next), top.stream, static_cast<std::uint32_t>(next)});
    }
  }
}

struct LegacyPhaseF {
  std::vector<Event> events;
  std::vector<SbeStrike> sbe_strikes;
};

/// The old phase F: rebase parents, clamp and `attribute` each stream,
/// stable-sort each stream by time, merge, then remap parents.
template <typename AttributeFn>
LegacyPhaseF legacy_phase_f(std::vector<CardStream> per_card, std::vector<Event> tail,
                            TimeSec last_time, const AttributeFn& attribute) {
  const std::size_t card_count = per_card.size();
  const std::size_t stream_count = card_count + 1;
  const auto stream_events = [&](std::size_t s) -> std::vector<Event>& {
    return s < card_count ? per_card[s].events : tail;
  };
  std::vector<std::size_t> offset(stream_count + 1, 0);
  for (std::size_t s = 0; s < stream_count; ++s) {
    offset[s + 1] = offset[s] + stream_events(s).size();
  }
  std::vector<std::vector<std::uint32_t>> order(stream_count);
  for (std::size_t s = 0; s < stream_count; ++s) {
    auto& stream = stream_events(s);
    const auto base = static_cast<std::int64_t>(offset[s]);
    for (auto& ev : stream) {
      if (ev.parent >= 0) ev.parent += base;
      ev.time = std::min(ev.time, last_time);
      attribute(ev);
    }
    auto& ord = order[s];
    ord.resize(stream.size());
    std::iota(ord.begin(), ord.end(), std::uint32_t{0});
    std::stable_sort(ord.begin(), ord.end(), [&](std::uint32_t a, std::uint32_t b) {
      return stream[a].time < stream[b].time;
    });
  }
  LegacyPhaseF out;
  std::vector<std::int64_t> new_index(offset[stream_count], -1);
  legacy_kway_merge(
      stream_count, [&](std::size_t s) { return order[s].size(); },
      [&](std::size_t s, std::size_t i) { return stream_events(s)[order[s][i]].time; },
      [&](std::size_t s, std::size_t i) {
        const std::uint32_t local = order[s][i];
        new_index[offset[s] + local] = static_cast<std::int64_t>(out.events.size());
        out.events.push_back(stream_events(s)[local]);
      });
  for (auto& ev : out.events) {
    if (ev.parent >= 0) ev.parent = new_index[static_cast<std::size_t>(ev.parent)];
  }
  legacy_kway_merge(
      card_count, [&](std::size_t s) { return per_card[s].sbe_strikes.size(); },
      [&](std::size_t s, std::size_t i) { return per_card[s].sbe_strikes[i].time; },
      [&](std::size_t s, std::size_t i) { out.sbe_strikes.push_back(per_card[s].sbe_strikes[i]); });
  return out;
}

/// The new order gathered the way run_fault_campaign gathers it (parents
/// remapped; no attribution).
std::vector<Event> gather_ordered(std::vector<CardStream> per_card, std::vector<Event> tail,
                                  TimeSec last_time) {
  const auto streams = order_streams(per_card, std::move(tail), last_time);
  std::vector<std::int64_t> new_index(streams.order.size());
  for (std::size_t i = 0; i < streams.order.size(); ++i) {
    new_index[streams.order[i]] = static_cast<std::int64_t>(i);
  }
  std::vector<Event> out;
  for (const std::uint32_t i : streams.order) {
    Event ev = streams[i];
    if (ev.parent >= 0) ev.parent = new_index[static_cast<std::size_t>(ev.parent)];
    out.push_back(ev);
  }
  return out;
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Field-by-field byte comparison (whole-struct memcmp would compare
/// padding too).
void expect_same_events(const std::vector<Event>& got, const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Event& a = got[i];
    const Event& b = want[i];
    ASSERT_TRUE(same_bytes(a.time, b.time) && same_bytes(a.node, b.node) &&
                same_bytes(a.card, b.card) && same_bytes(a.kind, b.kind) &&
                same_bytes(a.structure, b.structure) && same_bytes(a.job, b.job) &&
                same_bytes(a.user, b.user) && same_bytes(a.parent, b.parent))
        << "event " << i << ": time " << a.time << " vs " << b.time << ", parent "
        << a.parent << " vs " << b.parent;
  }
}

void expect_same_strikes(const std::vector<SbeStrike>& got, const std::vector<SbeStrike>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const SbeStrike& a = got[i];
    const SbeStrike& b = want[i];
    ASSERT_TRUE(same_bytes(a.time, b.time) && same_bytes(a.node, b.node) &&
                same_bytes(a.card, b.card) && same_bytes(a.structure, b.structure) &&
                same_bytes(a.page, b.page) && same_bytes(a.from_weak_cell, b.from_weak_cell))
        << "strike " << i;
  }
}

// run_fault_campaign (through run_study) against the old phase F over the
// same phase D and E streams, on the full default campaign and a quick one.
TEST(CampaignTimeOrder, MatchesLegacyPhaseF) {
  for (const auto& config : {core::default_config(), core::quick_config(7)}) {
    const auto study = core::run_study(config);

    const stats::Rng master{config.seed};
    gpu::Fleet fleet;
    auto traits = initialize_fleet(fleet, config.period.begin, master.fork("fleet"),
                                   config.campaign.model);
    const auto plan =
        plan_fault_campaign(fleet, std::move(traits), config.campaign, master.fork("faults"));
    auto per_card = run_card_streams(plan, fleet, study.trace, 0, plan.card_count());
    auto tail = run_campaign_tail(plan, fleet, study.trace);
    const auto legacy = legacy_phase_f(
        std::move(per_card), std::move(tail.events), config.period.end - 1, [&](Event& ev) {
          if (ev.job == xid::kNoJob) {
            ev.job = study.trace.job_at(ev.node, ev.time);
            if (ev.job != xid::kNoJob) ev.user = study.trace.job(ev.job).user;
          }
          if (ev.card == xid::kInvalidCard) ev.card = fleet.ledger().card_at(ev.node, ev.time);
        });
    SCOPED_TRACE(config.seed);
    ASSERT_GT(legacy.events.size(), 1000U);
    expect_same_events(study.events, legacy.events);
    expect_same_strikes(study.sbe_strikes, legacy.sbe_strikes);
  }
}

Event make_event(TimeSec time, topology::NodeId node, std::int64_t parent = -1) {
  Event ev;
  ev.time = time;
  ev.node = node;
  ev.parent = parent;
  return ev;
}

void expect_matches_legacy(const std::vector<CardStream>& cards, const std::vector<Event>& tail,
                           TimeSec last_time) {
  const auto legacy = legacy_phase_f(cards, tail, last_time, [](Event&) {});
  expect_same_events(gather_ordered(cards, tail, last_time), legacy.events);
}

TEST(CampaignTimeOrder, EqualTimesAcrossCardStreamsAndTailKeepProvisionalOrder) {
  std::vector<CardStream> cards(3);
  cards[0].events = {make_event(100, 1), make_event(200, 2), make_event(200, 3)};
  cards[2].events = {make_event(200, 4), make_event(100, 5)};
  const std::vector<Event> tail = {make_event(200, 6), make_event(100, 7), make_event(200, 8)};
  expect_matches_legacy(cards, tail, 1000);
  const auto got = gather_ordered(cards, tail, 1000);
  std::vector<topology::NodeId> nodes;
  for (const auto& ev : got) nodes.push_back(ev.node);
  EXPECT_EQ(nodes, (std::vector<topology::NodeId>{1, 5, 7, 2, 3, 4, 6, 8}));
}

TEST(CampaignTimeOrder, ParentsCrossStreamsAfterOrdering) {
  std::vector<CardStream> cards(2);
  // A DBE and its two follow-ons in card 0, a lone retirement in card 1.
  cards[0].events = {make_event(500, 1), make_event(530, 1, 0), make_event(501, 1, 0)};
  cards[1].events = {make_event(510, 2)};
  // A job root with children that interleave with the card events, and a
  // follow-on of a child.
  const std::vector<Event> tail = {make_event(505, 3), make_event(507, 4, 0),
                                   make_event(500, 5, 0), make_event(540, 6, 1)};
  expect_matches_legacy(cards, tail, 1000);
  const auto got = gather_ordered(cards, tail, 1000);
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].parent < 0) continue;
    const auto& parent = got[static_cast<std::size_t>(got[i].parent)];
    // Every parent link lands on the event it named before ordering.
    const auto child_node = got[i].node;
    EXPECT_TRUE((child_node == 1 && parent.node == 1 && parent.time == 500) ||
                (child_node == 4 && parent.node == 3) || (child_node == 5 && parent.node == 3) ||
                (child_node == 6 && parent.node == 4))
        << "event " << i << " on node " << child_node;
  }
}

TEST(CampaignTimeOrder, TimesPastTheWindowAreClamped) {
  std::vector<CardStream> cards(1);
  cards[0].events = {make_event(990, 1), make_event(1005, 2), make_event(999, 3)};
  const std::vector<Event> tail = {make_event(2000, 4), make_event(998, 5, -1),
                                   make_event(1001, 6, 1)};
  expect_matches_legacy(cards, tail, 999);
  const auto got = gather_ordered(cards, tail, 999);
  ASSERT_EQ(got.size(), 6U);
  for (const auto& ev : got) EXPECT_LE(ev.time, 999);
  std::vector<topology::NodeId> nodes;
  for (const auto& ev : got) nodes.push_back(ev.node);
  EXPECT_EQ(nodes, (std::vector<topology::NodeId>{1, 5, 2, 3, 4, 6}));
}

TEST(CampaignTimeOrder, EmptyAndSingleEventStreams) {
  EXPECT_TRUE(gather_ordered({}, {}, 100).empty());
  EXPECT_TRUE(gather_ordered(std::vector<CardStream>(5), {}, 100).empty());
  std::vector<CardStream> cards(4);
  cards[2].events = {make_event(50, 9)};
  const auto card_only = gather_ordered(cards, {}, 100);
  ASSERT_EQ(card_only.size(), 1U);
  EXPECT_EQ(card_only[0].node, 9);
  const auto tail_only = gather_ordered(std::vector<CardStream>(3), {make_event(70, 4)}, 100);
  ASSERT_EQ(tail_only.size(), 1U);
  EXPECT_EQ(tail_only[0].node, 4);
  expect_matches_legacy(cards, {make_event(50, 4)}, 100);
}

/// stable_time_order against an index stable_sort.
void expect_stable_order(const std::vector<TimeSec>& times) {
  std::vector<std::uint32_t> want(times.size());
  std::iota(want.begin(), want.end(), std::uint32_t{0});
  std::stable_sort(want.begin(), want.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return times[a] < times[b]; });
  EXPECT_EQ(stable_time_order(times), want);
}

TEST(CampaignTimeOrder, RadixOrderMatchesStableSortAtEverySpan) {
  constexpr auto kMaxSpan = std::numeric_limits<std::uint64_t>::max();
  stats::Rng rng{20151115};
  // Spans on both sides of each 13-bit digit edge (8191 and 8192; 2^26 - 1
  // is the largest two-pass span, 2^26 the smallest three-pass one), 2^39
  // (three digits plus one bit), past 32 bits, and the full 64-bit range;
  // offsets on a coarse grid so ties are common.
  for (const std::uint64_t span :
       {std::uint64_t{1}, std::uint64_t{2047}, std::uint64_t{8191}, std::uint64_t{8192},
        std::uint64_t{1} << 20, (std::uint64_t{1} << 26) - 1, std::uint64_t{1} << 26,
        std::uint64_t{1} << 39, std::uint64_t{1} << 40, kMaxSpan}) {
    const TimeSec base = span == kMaxSpan ? std::numeric_limits<TimeSec>::min() : -1000;
    const auto at = [&](std::uint64_t offset) {
      return static_cast<TimeSec>(static_cast<std::uint64_t>(base) + offset);
    };
    std::vector<TimeSec> times(5000);
    for (auto& t : times) t = at(std::min(span, rng.below(span / 16 + 1) * 16));
    times[17] = at(0);
    times[4000] = at(span);
    SCOPED_TRACE(span);
    expect_stable_order(times);
  }
  expect_stable_order({std::numeric_limits<TimeSec>::max(), std::numeric_limits<TimeSec>::min(),
                       0, std::numeric_limits<TimeSec>::min(),
                       std::numeric_limits<TimeSec>::max(), -1});
  expect_stable_order({});
  expect_stable_order({42});
  expect_stable_order(std::vector<TimeSec>(100, 7));
}

TEST(InitializeFleet, RejectsNonEmptyFleet) {
  gpu::Fleet fleet;
  (void)fleet.procure();
  EXPECT_THROW((void)initialize_fleet(fleet, 0, stats::Rng{1}), std::invalid_argument);
}

TEST(InitializeFleet, CoversAllComputeNodes) {
  gpu::Fleet fleet;
  const auto traits = initialize_fleet(fleet, 1000, stats::Rng{2});
  EXPECT_EQ(fleet.card_count(), static_cast<std::size_t>(topology::kComputeNodes));
  EXPECT_EQ(traits.size(), fleet.card_count());
  EXPECT_EQ(fleet.ledger().card_at(0, 2000), xid::kInvalidCard);  // node 0 is service
}

}  // namespace
}  // namespace titan::fault
