#include "analysis/prediction.hpp"

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
  e.node = 1;
  e.kind = kind;
  return e;
}

/// A stream where every DBE is followed by a cleanup 10 s later, and
/// unrelated OTBs occur far from everything.
std::vector<ParsedEvent> deterministic_stream(int pairs) {
  std::vector<ParsedEvent> events;
  for (int i = 0; i < pairs; ++i) {
    events.push_back(ev(i * 10000, ErrorKind::kDoubleBitError));
    events.push_back(ev(i * 10000 + 10, ErrorKind::kPreemptiveCleanup));
    events.push_back(ev(i * 10000 + 5000, ErrorKind::kOffTheBus));
  }
  return events;
}

TEST(Prediction, LearnsPerfectPrecursor) {
  const auto training = deterministic_stream(20);
  const auto predictor =
      FailurePredictor::fit(frame_of(training), ErrorKind::kPreemptiveCleanup, 300.0);
  ASSERT_FALSE(predictor.rules().empty());
  const auto& top = predictor.rules().front();
  EXPECT_EQ(top.precursor, ErrorKind::kDoubleBitError);
  EXPECT_DOUBLE_EQ(top.probability, 1.0);
  EXPECT_EQ(top.support, 20U);
}

TEST(Prediction, UnrelatedKindsGetNoRule) {
  const auto training = deterministic_stream(20);
  const auto predictor =
      FailurePredictor::fit(frame_of(training), ErrorKind::kPreemptiveCleanup, 300.0);
  for (const auto& rule : predictor.rules()) {
    EXPECT_NE(rule.precursor, ErrorKind::kOffTheBus);
  }
}

TEST(Prediction, MinSupportFiltersRareKinds) {
  auto training = deterministic_stream(3);  // support 3 < min_support 5
  const auto predictor =
      FailurePredictor::fit(frame_of(training), ErrorKind::kPreemptiveCleanup, 300.0, 5);
  EXPECT_TRUE(predictor.rules().empty());
}

TEST(Prediction, SelfRulesExcludedByDefault) {
  std::vector<ParsedEvent> burst;
  for (int i = 0; i < 50; ++i) burst.push_back(ev(i, ErrorKind::kGraphicsEngineException));
  const auto predictor =
      FailurePredictor::fit(frame_of(burst), ErrorKind::kGraphicsEngineException, 300.0);
  EXPECT_TRUE(predictor.rules().empty());
  const auto with_self =
      FailurePredictor::fit(frame_of(burst), ErrorKind::kGraphicsEngineException, 300.0, 5, true);
  ASSERT_EQ(with_self.rules().size(), 1U);
  EXPECT_GT(with_self.rules().front().probability, 0.9);
}

TEST(Prediction, PerfectEvaluationOnDeterministicStream) {
  const auto training = deterministic_stream(20);
  const auto eval_stream = deterministic_stream(10);
  const auto predictor =
      FailurePredictor::fit(frame_of(training), ErrorKind::kPreemptiveCleanup, 300.0);
  const auto eval = predictor.evaluate(frame_of(eval_stream), 0.5);
  EXPECT_EQ(eval.alarms, 10U);
  EXPECT_EQ(eval.true_positives, 10U);
  EXPECT_EQ(eval.targets, 10U);
  EXPECT_EQ(eval.targets_covered, 10U);
  EXPECT_DOUBLE_EQ(eval.precision(), 1.0);
  EXPECT_DOUBLE_EQ(eval.recall(), 1.0);
  EXPECT_DOUBLE_EQ(eval.f1(), 1.0);
}

TEST(Prediction, ThresholdSilencesWeakRules) {
  // DBE -> cleanup only half the time.
  std::vector<ParsedEvent> training;
  for (int i = 0; i < 40; ++i) {
    training.push_back(ev(i * 10000, ErrorKind::kDoubleBitError));
    if (i % 2 == 0) {
      training.push_back(ev(i * 10000 + 10, ErrorKind::kPreemptiveCleanup));
    }
  }
  const auto predictor =
      FailurePredictor::fit(frame_of(training), ErrorKind::kPreemptiveCleanup, 300.0);
  ASSERT_FALSE(predictor.rules().empty());
  EXPECT_NEAR(predictor.rules().front().probability, 0.5, 0.01);
  EXPECT_TRUE(predictor.predict(frame_of(training), 0.9).empty());
  EXPECT_FALSE(predictor.predict(frame_of(training), 0.4).empty());
}

TEST(Prediction, PrecisionDegradesGracefully) {
  const auto training = deterministic_stream(20);
  // Evaluation stream where cleanups never actually follow.
  std::vector<ParsedEvent> eval_stream;
  for (int i = 0; i < 10; ++i) {
    eval_stream.push_back(ev(i * 10000, ErrorKind::kDoubleBitError));
  }
  const auto predictor =
      FailurePredictor::fit(frame_of(training), ErrorKind::kPreemptiveCleanup, 300.0);
  const auto eval = predictor.evaluate(frame_of(eval_stream), 0.5);
  EXPECT_EQ(eval.alarms, 10U);
  EXPECT_EQ(eval.true_positives, 0U);
  EXPECT_DOUBLE_EQ(eval.precision(), 0.0);
  EXPECT_DOUBLE_EQ(eval.f1(), 0.0);
}

TEST(Prediction, EmptyInputsSafe) {
  const EventFrame no_events;
  const auto predictor = FailurePredictor::fit(no_events, ErrorKind::kPageRetirement, 300.0);
  EXPECT_TRUE(predictor.rules().empty());
  const auto eval = predictor.evaluate(no_events, 0.5);
  EXPECT_EQ(eval.alarms, 0U);
  EXPECT_DOUBLE_EQ(eval.recall(), 0.0);
}

}  // namespace
}  // namespace titan::analysis
