// Cross-seed stability of the calibrated model: the shape criteria that
// EXPERIMENTS.md reports must not be artifacts of one lucky seed.  Each
// case runs a full-machine quick campaign (3 months, ~0.7 s) at a
// different seed and asserts the qualitative findings.
#include <gtest/gtest.h>

#include <span>
#include <unordered_set>

#include "analysis/event_frame.hpp"
#include "analysis/frequency.hpp"
#include "analysis/sbe_study.hpp"
#include "core/facility.hpp"

namespace titan {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static const core::StudyDataset& dataset() {
    static std::uint64_t cached_seed = ~0ULL;
    static std::unique_ptr<core::StudyDataset> data;
    if (cached_seed != GetParam()) {
      data = std::make_unique<core::StudyDataset>(
          core::run_study(core::quick_config(GetParam())));
      cached_seed = GetParam();
    }
    return *data;
  }

  static analysis::EventFrame frame() {
    return analysis::EventFrame::build(std::span<const xid::Event>{dataset().events});
  }
};

TEST_P(SeedSweep, DbeRatePlausible) {
  const auto& period = dataset().config.period;
  const auto mtbf =
      analysis::kind_mtbf(frame(), xid::ErrorKind::kDoubleBitError, period.begin, period.end);
  EXPECT_GE(mtbf.event_count, 4U);
  EXPECT_LE(mtbf.event_count, 40U);
}

TEST_P(SeedSweep, SbeCardFractionBelowFivePercent) {
  const auto study = analysis::sbe_spatial_study(dataset().final_snapshot);
  EXPECT_LT(study.fraction_of_fleet, 0.05);
  EXPECT_GT(study.cards_with_any_sbe, 100U);
}

TEST_P(SeedSweep, OffenderRemovalHomogenizes) {
  const auto study = analysis::sbe_spatial_study(dataset().final_snapshot);
  EXPECT_LT(study.skew[2], study.skew[0]);
}

TEST_P(SeedSweep, RetirementEraRespected) {
  const auto new_driver = dataset().config.campaign.timeline.new_driver;
  for (const auto& e : dataset().events) {
    if (e.kind == xid::ErrorKind::kPageRetirement) {
      ASSERT_GE(e.time, new_driver);
    }
  }
}

TEST_P(SeedSweep, Xid42NeverAndXid32Rare) {
  std::size_t xid42 = 0;
  std::size_t xid32 = 0;
  for (const auto& e : dataset().events) {
    if (e.kind == xid::ErrorKind::kVideoProcessorDriver) ++xid42;
    if (e.kind == xid::ErrorKind::kCorruptedPushBuffer) ++xid32;
  }
  EXPECT_EQ(xid42, 0U);
  EXPECT_LT(xid32, 10U);
}

TEST_P(SeedSweep, UserAppBurstierThanDriverErrors) {
  const auto events = frame();
  const auto& period = dataset().config.period;
  const double d13 = analysis::daily_dispersion_index(
      events, xid::ErrorKind::kGraphicsEngineException, period.begin, period.end);
  const double d43 = analysis::daily_dispersion_index(
      events, xid::ErrorKind::kGpuStoppedProcessing, period.begin, period.end);
  EXPECT_GT(d13, d43);
}

TEST_P(SeedSweep, SmiNeverOvercountsDbes) {
  std::size_t console_dbe = 0;
  for (const auto& e : dataset().events) {
    if (e.kind == xid::ErrorKind::kDoubleBitError) ++console_dbe;
  }
  EXPECT_LE(dataset().final_snapshot.fleet_dbe_total(), console_dbe);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(101u, 202u, 303u));

}  // namespace
}  // namespace titan
