#include "analysis/frequency.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace titan::analysis {
namespace {

using parse::ParsedEvent;
using xid::ErrorKind;

EventFrame frame_of(const std::vector<ParsedEvent>& events) {
  return EventFrame::build(std::span<const ParsedEvent>{events});
}

ParsedEvent ev(stats::TimeSec t, ErrorKind kind) {
  ParsedEvent e;
  e.time = t;
  e.node = 5;
  e.kind = kind;
  return e;
}

const stats::TimeSec kBegin = stats::to_time(stats::CivilDate{2013, 6, 1});
const stats::TimeSec kEnd = stats::to_time(stats::CivilDate{2013, 9, 1});

TEST(Frequency, MonthlyCountsOnlyMatchingKind) {
  const std::vector<ParsedEvent> events{
      ev(kBegin + 100, ErrorKind::kDoubleBitError),
      ev(kBegin + 200, ErrorKind::kOffTheBus),
      ev(kBegin + 40 * stats::kSecondsPerDay, ErrorKind::kDoubleBitError),
  };
  const auto series = monthly_frequency(frame_of(events), ErrorKind::kDoubleBitError, kBegin, kEnd);
  ASSERT_EQ(series.counts.size(), 3U);
  EXPECT_EQ(series.counts[0], 1U);
  EXPECT_EQ(series.counts[1], 1U);
  EXPECT_EQ(series.counts[2], 0U);
}

TEST(Frequency, MtbfMatchesHandComputation) {
  std::vector<ParsedEvent> events;
  // 23 events over ~2208 hours -> MTBF 96 h.
  for (int i = 0; i < 23; ++i) {
    events.push_back(ev(kBegin + i * 90000, ErrorKind::kDoubleBitError));
  }
  const auto est = kind_mtbf(frame_of(events), ErrorKind::kDoubleBitError, kBegin, kEnd);
  EXPECT_EQ(est.event_count, 23U);
  const double window_h = static_cast<double>(kEnd - kBegin) / 3600.0;
  EXPECT_NEAR(est.mtbf_hours, window_h / 23.0, 1e-9);
}

TEST(Frequency, DispersionPoissonNearOne) {
  // Evenly spread events: dispersion well below the bursty threshold.
  std::vector<ParsedEvent> events;
  for (stats::TimeSec t = kBegin; t < kEnd; t += stats::kSecondsPerDay) {
    events.push_back(ev(t + 3600, ErrorKind::kGpuStoppedProcessing));
  }
  const double d =
      daily_dispersion_index(frame_of(events), ErrorKind::kGpuStoppedProcessing, kBegin, kEnd);
  EXPECT_LT(d, 0.2);
}

TEST(Frequency, DispersionBurstyIsLarge) {
  // All 60 events inside a single day.
  std::vector<ParsedEvent> events;
  for (int i = 0; i < 60; ++i) {
    events.push_back(ev(kBegin + 10 * stats::kSecondsPerDay + i * 60,
                        ErrorKind::kGraphicsEngineException));
  }
  const double d =
      daily_dispersion_index(frame_of(events), ErrorKind::kGraphicsEngineException, kBegin, kEnd);
  EXPECT_GT(d, 10.0);
}

TEST(Frequency, DispersionNoEventsIsZero) {
  EXPECT_EQ(daily_dispersion_index(frame_of({}), ErrorKind::kOffTheBus, kBegin, kEnd), 0.0);
}

}  // namespace
}  // namespace titan::analysis
