#include "parse/console.hpp"

#include <gtest/gtest.h>

#include "logsim/console.hpp"

namespace titan::parse {
namespace {

xid::Event make_event(xid::ErrorKind kind, xid::MemoryStructure structure) {
  xid::Event e;
  e.time = stats::to_time(stats::CivilDateTime{stats::CivilDate{2014, 6, 2}, 4, 5, 6});
  e.node = topology::node_id(topology::NodeLocation{7, 1, 2, 3, 0});
  e.kind = kind;
  e.structure = structure;
  return e;
}

/// The console line of `event` under the Titan profile.
std::string line_of(const xid::Event& event) {
  return logsim::console_line(event, profile::k20x_titan());
}

TEST(ParseConsole, RoundTripsEveryKind) {
  for (const auto& info : xid::all_errors()) {
    if (info.kind == xid::ErrorKind::kSingleBitError) continue;
    const auto structure = info.kind == xid::ErrorKind::kDoubleBitError
                               ? xid::MemoryStructure::kRegisterFile
                               : xid::MemoryStructure::kNone;
    const auto event = make_event(info.kind, structure);
    const auto parsed = parse_console_line(line_of(event));
    ASSERT_TRUE(parsed.has_value()) << xid::token(info.kind);
    EXPECT_EQ(parsed->time, event.time);
    EXPECT_EQ(parsed->node, event.node);
    EXPECT_EQ(parsed->kind, event.kind);
    EXPECT_EQ(parsed->structure, event.structure);
  }
}

TEST(ParseConsole, StructureDecode) {
  const auto event = make_event(xid::ErrorKind::kDoubleBitError,
                                xid::MemoryStructure::kDeviceMemory);
  const auto parsed = parse_console_line(line_of(event));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->structure, xid::MemoryStructure::kDeviceMemory);
}

class BadConsoleLine : public ::testing::TestWithParam<const char*> {};

TEST_P(BadConsoleLine, Rejected) {
  EXPECT_FALSE(parse_console_line(GetParam()).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, BadConsoleLine,
    ::testing::Values("", "no brackets at all",
                      "[2014-06-02 04:05:06] missing gpu marker",
                      "[2014-06-02 04:05:06] c7-1c2s3n0 GPU NOPE: Unknown",
                      "[2014-06-02 04:05:06] notacname GPU DBE: Double Bit Error",
                      "[2014-99-02 04:05:06] c7-1c2s3n0 GPU DBE: Double Bit Error",
                      "[2014-06-02] c7-1c2s3n0 GPU DBE: x"));

TEST(ParseConsole, LogLevelCounting) {
  std::vector<std::string> lines = {
      line_of(make_event(xid::ErrorKind::kOffTheBus, xid::MemoryStructure::kNone)),
      "some unrelated SMW chatter",
      "[2014-06-02 04:05:06] c7-1c2s3n0 GPU BROKEN: garbage",
  };
  const auto result = parse_console_log(lines);
  EXPECT_EQ(result.events.size(), 1U);
  EXPECT_EQ(result.unrelated_lines, 1U);
  EXPECT_EQ(result.malformed_lines, 1U);
}

TEST(ParseConsole, HardenedAgainstFieldLogPathologies) {
  const std::string good = line_of(
      make_event(xid::ErrorKind::kDoubleBitError, xid::MemoryStructure::kDeviceMemory));

  // CRLF file: a trailing '\r' is tolerated, the event still parses.
  EXPECT_TRUE(parse_console_line(good + "\r").has_value());

  // Embedded NUL bytes are corruption, not data.
  std::string nul = good;
  nul[5] = '\0';
  EXPECT_FALSE(parse_console_line(nul).has_value());
  EXPECT_FALSE(parse_console_line(std::string_view{"\0\0\0", 3}).has_value());

  // Pathologically long lines are rejected outright (bounded work).
  std::string overlong = good;
  overlong.append(kMaxConsoleLineLength, 'x');
  EXPECT_FALSE(parse_console_line(overlong).has_value());
  // ... but a line exactly at the cap is still fair game.
  std::string at_cap = good;
  at_cap.append(kMaxConsoleLineLength - at_cap.size(), ' ');
  EXPECT_TRUE(parse_console_line(at_cap).has_value());
}

TEST(ParseConsole, CrlfLogCountsLikeLfLog) {
  std::vector<std::string> lines = {
      line_of(make_event(xid::ErrorKind::kOffTheBus, xid::MemoryStructure::kNone)) +
          "\r",
      "some unrelated SMW chatter\r",
  };
  const auto result = parse_console_log(lines);
  EXPECT_EQ(result.events.size(), 1U);
  EXPECT_EQ(result.unrelated_lines, 1U);
  EXPECT_EQ(result.malformed_lines, 0U);
}

TEST(ParseConsole, WholeStudyLogRoundTrips) {
  // Emit then parse a small synthetic stream; every line must come back.
  std::vector<xid::Event> events;
  for (int i = 0; i < 100; ++i) {
    auto e = make_event(i % 2 == 0 ? xid::ErrorKind::kGpuStoppedProcessing
                                   : xid::ErrorKind::kDoubleBitError,
                        i % 2 == 0 ? xid::MemoryStructure::kNone
                                   : xid::MemoryStructure::kDeviceMemory);
    e.time += i * 60;
    e.node = static_cast<topology::NodeId>(i * 96 + 5);
    events.push_back(e);
  }
  const auto lines = logsim::emit_console_log(events, profile::k20x_titan());
  const auto result = parse_console_log(lines);
  ASSERT_EQ(result.events.size(), events.size());
  EXPECT_EQ(result.malformed_lines, 0U);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(result.events[i].time, events[i].time);
    EXPECT_EQ(result.events[i].node, events[i].node);
    EXPECT_EQ(result.events[i].kind, events[i].kind);
  }
}

}  // namespace
}  // namespace titan::parse
