#include "logsim/console.hpp"

#include <gtest/gtest.h>

namespace titan::logsim {
namespace {

const profile::FleetProfile& k20x() { return profile::k20x_titan(); }

xid::Event make_event() {
  xid::Event e;
  e.time = stats::to_time(stats::CivilDateTime{stats::CivilDate{2014, 1, 12}, 13, 45, 1});
  e.node = topology::node_id(topology::NodeLocation{12, 3, 1, 4, 2});
  e.kind = xid::ErrorKind::kDoubleBitError;
  e.structure = xid::MemoryStructure::kDeviceMemory;
  return e;
}

TEST(Console, LineFormat) {
  EXPECT_EQ(console_line(make_event(), k20x()),
            "[2014-01-12 13:45:01] c12-3c1s4n2 GPU DBE: "
            "Double Bit Error (detected by SECDED ECC, not corrected) (DRAM)");
}

TEST(Console, NoStructureSuffixWhenNone) {
  auto e = make_event();
  e.kind = xid::ErrorKind::kOffTheBus;
  e.structure = xid::MemoryStructure::kNone;
  const auto line = console_line(e, k20x());
  EXPECT_NE(line.find("GPU OTB: Off the Bus"), std::string::npos);
  EXPECT_EQ(line.find("(NONE)"), std::string::npos);
}

TEST(Console, XidTokensInLines) {
  auto e = make_event();
  e.kind = xid::ErrorKind::kGraphicsEngineException;
  e.structure = xid::MemoryStructure::kNone;
  EXPECT_NE(console_line(e, k20x()).find("GPU XID13:"), std::string::npos);
}

TEST(Console, EmitSkipsSbes) {
  std::vector<xid::Event> events(3, make_event());
  events[1].kind = xid::ErrorKind::kSingleBitError;
  const auto lines = emit_console_log(events, k20x());
  EXPECT_EQ(lines.size(), 2U);
}

TEST(Console, EmitPreservesOrder) {
  std::vector<xid::Event> events(2, make_event());
  events[1].time += 100;
  events[1].kind = xid::ErrorKind::kPreemptiveCleanup;
  const auto lines = emit_console_log(events, k20x());
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_LT(lines[0].substr(0, 21), lines[1].substr(0, 21));
}

TEST(Console, LineIntoMatchesLine) {
  // The buffer-reusing serializer must produce the same bytes even when
  // the buffer held a previous (longer) line.
  std::string buffer = "leftover bytes from a much longer previous line .....";
  for (const auto kind : {xid::ErrorKind::kDoubleBitError, xid::ErrorKind::kOffTheBus,
                          xid::ErrorKind::kGraphicsEngineException}) {
    auto e = make_event();
    e.kind = kind;
    if (kind != xid::ErrorKind::kDoubleBitError) e.structure = xid::MemoryStructure::kNone;
    console_line_into(e, k20x(), buffer);
    EXPECT_EQ(buffer, console_line(e, k20x()));
  }
}

TEST(Console, EmitByteIdenticalToPerLineSerialization) {
  // The chunked, buffer-reusing emitter must be byte-identical to calling
  // console_line per visible event -- across a chunk boundary (> 1024
  // lines) and at any thread width.
  std::vector<xid::Event> events;
  for (int i = 0; i < 3000; ++i) {
    auto e = make_event();
    e.time += i;
    e.node = static_cast<topology::NodeId>(i % 200);
    switch (i % 4) {
      case 0: break;  // DBE as built
      case 1: e.kind = xid::ErrorKind::kSingleBitError; break;
      case 2:
        e.kind = xid::ErrorKind::kOffTheBus;
        e.structure = xid::MemoryStructure::kNone;
        break;
      default:
        e.kind = xid::ErrorKind::kPageRetirement;
        e.structure = xid::MemoryStructure::kNone;
        break;
    }
    events.push_back(e);
  }
  std::vector<std::string> expected;
  for (const auto& e : events) {
    if (e.kind == xid::ErrorKind::kSingleBitError) continue;
    expected.push_back(console_line(e, k20x()));
  }
  EXPECT_EQ(emit_console_log(events, k20x()), expected);
}

}  // namespace
}  // namespace titan::logsim
