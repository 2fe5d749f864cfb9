#include "analysis/event_frame.hpp"

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "par/pool.hpp"

namespace titan::analysis {
namespace {

using xid::ErrorKind;

[[nodiscard]] xid::Event make_event(stats::TimeSec time, topology::NodeId node, ErrorKind kind) {
  xid::Event e;
  e.time = time;
  e.node = node;
  e.kind = kind;
  return e;
}

/// A mixed-kind stream long enough to exercise several build chunks.
[[nodiscard]] std::vector<xid::Event> make_stream(std::size_t n) {
  constexpr std::array kKinds = {
      ErrorKind::kSingleBitError, ErrorKind::kDoubleBitError, ErrorKind::kOffTheBus,
      ErrorKind::kGraphicsEngineException, ErrorKind::kPageRetirement};
  std::vector<xid::Event> events;
  events.reserve(n);
  const auto origin = stats::to_time(stats::CivilDateTime{stats::CivilDate{2013, 6, 1}, 0, 0, 0});
  for (std::size_t i = 0; i < n; ++i) {
    auto e = make_event(origin + static_cast<stats::TimeSec>(i * 3600),
                        static_cast<topology::NodeId>(i % 1000), kKinds[i % kKinds.size()]);
    e.job = static_cast<xid::JobId>(i / 10);
    if (i % 7 == 0) e.parent = static_cast<std::int64_t>(i) - 1;
    if (e.kind == ErrorKind::kDoubleBitError) e.structure = xid::MemoryStructure::kDeviceMemory;
    events.push_back(e);
  }
  return events;
}

/// Naive oracle for the console view of ground truth: SBEs dropped, the
/// rest copied row by row in stream order.
[[nodiscard]] std::vector<parse::ParsedEvent> console_rows(const std::vector<xid::Event>& events) {
  std::vector<parse::ParsedEvent> out;
  for (const auto& e : events) {
    if (e.kind == ErrorKind::kSingleBitError) continue;
    out.push_back(parse::ParsedEvent{e.time, e.node, e.kind, e.structure});
  }
  return out;
}

TEST(EventFrame, ColumnsMatchSource) {
  const auto events = make_stream(500);
  const auto frame = EventFrame::build(events);
  const auto parsed = console_rows(events);

  ASSERT_EQ(frame.size(), parsed.size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(frame.times()[i], parsed[i].time);
    EXPECT_EQ(frame.nodes()[i], parsed[i].node);
    EXPECT_EQ(frame.kinds()[i], parsed[i].kind);
    EXPECT_EQ(frame.structures()[i], parsed[i].structure);
    EXPECT_EQ(topology::node_id(frame.locations()[i]), parsed[i].node);
    EXPECT_EQ(frame.month_ordinals()[i],
              stats::month_ordinal(stats::to_civil(parsed[i].time).date));
  }
}

TEST(EventFrame, GroundTruthBuildDropsSbe) {
  std::vector<xid::Event> events(2);
  events[0].kind = ErrorKind::kSingleBitError;
  events[1].kind = ErrorKind::kDoubleBitError;
  events[1].time = 42;
  events[1].node = 7;
  events[1].structure = xid::MemoryStructure::kRegisterFile;
  const auto frame = EventFrame::build(events);
  ASSERT_EQ(frame.size(), 1U);
  EXPECT_EQ(frame.kinds()[0], ErrorKind::kDoubleBitError);
  EXPECT_EQ(frame.times()[0], 42);
  EXPECT_EQ(frame.nodes()[0], 7);
  EXPECT_EQ(frame.structures()[0], xid::MemoryStructure::kRegisterFile);
}

TEST(EventFrame, KindSliceCountsAndTimes) {
  std::vector<parse::ParsedEvent> events;
  for (const auto& [time, kind] : {std::pair{1, ErrorKind::kOffTheBus},
                                   std::pair{2, ErrorKind::kDoubleBitError},
                                   std::pair{3, ErrorKind::kOffTheBus}}) {
    events.push_back(parse::ParsedEvent{time, 5, kind, xid::MemoryStructure::kNone});
  }
  const auto frame = EventFrame::build(std::span<const parse::ParsedEvent>{events});
  EXPECT_EQ(frame.count_of(ErrorKind::kOffTheBus), 2U);
  const auto times = frame.times_of(ErrorKind::kOffTheBus);
  EXPECT_EQ(std::vector<stats::TimeSec>(times.begin(), times.end()),
            (std::vector<stats::TimeSec>{1, 3}));
}

TEST(EventFrame, SliceEqualsParsedBuild) {
  // A slice of a frame (how the prediction kernel splits the stream)
  // equals the frame built from the same rows as ParsedEvents.
  const auto events = make_stream(5000);
  const auto whole = EventFrame::build(events);
  const auto parsed = console_rows(events);
  const std::size_t half = whole.size() / 2;
  for (const auto& [offset, count] :
       {std::pair{std::size_t{0}, half}, std::pair{half, whole.size() - half},
        std::pair{std::size_t{0}, whole.size()}}) {
    EXPECT_EQ(whole.slice(offset, count),
              EventFrame::build(std::span<const parse::ParsedEvent>{parsed}.subspan(offset, count)));
  }
}

TEST(EventFrame, GroundTruthKeepsJobAndRootColumns) {
  const auto events = make_stream(100);
  const auto frame = EventFrame::build(events);
  std::size_t row = 0;
  for (const auto& e : events) {
    if (e.kind == ErrorKind::kSingleBitError) continue;
    EXPECT_EQ(frame.jobs()[row], e.job);
    EXPECT_EQ(frame.roots()[row], e.is_child() ? 0 : 1);
    ++row;
  }
  EXPECT_EQ(row, frame.size());
}

TEST(EventFrame, ParsedBuildHasNoJobAttribution) {
  const auto events = make_stream(50);
  const auto parsed = console_rows(events);
  const auto frame = EventFrame::build(std::span<const parse::ParsedEvent>{parsed});
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(frame.jobs()[i], xid::kNoJob);
    EXPECT_EQ(frame.roots()[i], 1);
    EXPECT_EQ(frame.cards()[i], xid::kInvalidCard);  // no ledger
  }
}

TEST(EventFrame, CsrIndexIsExactAndStreamOrdered) {
  const auto events = make_stream(1000);
  const auto frame = EventFrame::build(events);

  std::size_t total = 0;
  for (std::size_t k = 0; k < xid::kErrorKindCount; ++k) {
    const auto kind = static_cast<ErrorKind>(k);
    const auto rows = frame.rows_of(kind);
    const auto times = frame.times_of(kind);
    ASSERT_EQ(rows.size(), frame.count_of(kind));
    ASSERT_EQ(times.size(), rows.size());
    total += rows.size();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(frame.kinds()[rows[i]], kind);
      EXPECT_EQ(frame.times()[rows[i]], times[i]);
      if (i > 0) {
        EXPECT_LT(rows[i - 1], rows[i]);  // stream order
      }
    }
  }
  EXPECT_EQ(total, frame.size());  // partition: every row in exactly one slice
  EXPECT_EQ(frame.count_of(ErrorKind::kSingleBitError), 0U);  // console-invisible
}

TEST(EventFrame, CardJoinMatchesLedger) {
  const auto events = make_stream(300);
  gpu::FleetLedger ledger{1000};
  // Install histories with churn on the nodes the stream touches.
  for (topology::NodeId node = 0; node < 1000; ++node) {
    ledger.install(node, static_cast<xid::CardId>(node), 0);
    if (node % 3 == 0) {
      ledger.install(node, static_cast<xid::CardId>(10000 + node),
                     events[events.size() / 2].time);
    }
  }
  const auto frame = EventFrame::build(events, &ledger);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(frame.cards()[i], ledger.card_at(frame.nodes()[i], frame.times()[i]));
  }
}

TEST(EventFrame, DeterministicAcrossThreadWidths) {
  const auto events = make_stream(5000);  // > one 4096-row build chunk
  par::set_threads(1);
  const auto serial = EventFrame::build(events);
  par::set_threads(4);
  const auto parallel = EventFrame::build(events);
  par::set_threads(par::default_thread_count());
  EXPECT_EQ(serial, parallel);
}

TEST(EventFrame, EmptyStream) {
  const auto frame = EventFrame::build(std::span<const xid::Event>{});
  EXPECT_TRUE(frame.empty());
  EXPECT_EQ(frame.size(), 0U);
  EXPECT_EQ(frame.count_of(ErrorKind::kDoubleBitError), 0U);
  EXPECT_TRUE(frame.times_of(ErrorKind::kDoubleBitError).empty());
}

}  // namespace
}  // namespace titan::analysis
