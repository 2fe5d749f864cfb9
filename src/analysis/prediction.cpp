#include "analysis/prediction.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace titan::analysis {

namespace {

/// Score alarms against target occurrence times (shared by the span and
/// frame evaluate paths).
[[nodiscard]] FailurePredictor::Evaluation score_alarms(
    const std::vector<FailurePredictor::Alarm>& alarms,
    std::span<const stats::TimeSec> target_times, stats::TimeSec horizon) {
  FailurePredictor::Evaluation eval;
  eval.alarms = alarms.size();
  eval.targets = target_times.size();

  // True positive: a target occurs in (alarm, alarm + horizon).
  for (const auto& alarm : alarms) {
    const auto it =
        std::upper_bound(target_times.begin(), target_times.end(), alarm.time);
    if (it != target_times.end() && *it - alarm.time < horizon) ++eval.true_positives;
  }
  // Coverage: a target is covered when some alarm precedes it in-horizon.
  std::vector<stats::TimeSec> alarm_times;
  alarm_times.reserve(alarms.size());
  for (const auto& alarm : alarms) alarm_times.push_back(alarm.time);
  for (const auto t : target_times) {
    const auto it = std::lower_bound(alarm_times.begin(), alarm_times.end(), t);
    if (it != alarm_times.begin() && t - *std::prev(it) < horizon) ++eval.targets_covered;
  }
  return eval;
}

}  // namespace

FailurePredictor FailurePredictor::fit(const EventFrame& training, xid::ErrorKind target,
                                       double horizon_s, std::uint64_t min_support,
                                       bool allow_self) {
  FailurePredictor predictor;
  predictor.target_ = target;
  predictor.horizon_s_ = horizon_s;

  const auto horizon = static_cast<stats::TimeSec>(std::llround(horizon_s));
  std::array<std::uint64_t, xid::kErrorKindCount> occurrences{};
  std::array<std::uint64_t, xid::kErrorKindCount> followed{};
  const auto times = training.times();
  const auto kinds = training.kinds();
  const auto target_rows = training.rows_of(target);
  const auto target_times = training.times_of(target);

  // "Is this event followed by the target within the horizon?" is a
  // binary search into the target's CSR slice (first target row after the
  // event's stream position), not a forward window scan.
  for (std::size_t i = 0; i < training.size(); ++i) {
    ++occurrences[static_cast<std::size_t>(kinds[i])];
    const auto next = std::upper_bound(target_rows.begin(), target_rows.end(),
                                       static_cast<std::uint32_t>(i));
    if (next == target_rows.end()) continue;
    const auto next_time = target_times[static_cast<std::size_t>(next - target_rows.begin())];
    if (next_time - times[i] < horizon) {
      ++followed[static_cast<std::size_t>(kinds[i])];
    }
  }
  for (std::size_t k = 0; k < xid::kErrorKindCount; ++k) {
    if (occurrences[k] < min_support) continue;
    const auto kind = static_cast<xid::ErrorKind>(k);
    if (!allow_self && kind == target) continue;
    if (followed[k] == 0) continue;
    PrecursorRule rule;
    rule.precursor = kind;
    rule.target = target;
    rule.probability = static_cast<double>(followed[k]) / static_cast<double>(occurrences[k]);
    rule.support = occurrences[k];
    predictor.rules_.push_back(rule);
  }
  std::stable_sort(predictor.rules_.begin(), predictor.rules_.end(),
                   [](const PrecursorRule& a, const PrecursorRule& b) {
                     return a.probability > b.probability;
                   });
  return predictor;
}

std::vector<FailurePredictor::Alarm> FailurePredictor::predict(const EventFrame& stream,
                                                               double threshold) const {
  std::array<double, xid::kErrorKindCount> active;
  active.fill(-1.0);
  for (const auto& rule : rules_) {
    if (rule.probability >= threshold) {
      active[static_cast<std::size_t>(rule.precursor)] = rule.probability;
    }
  }
  const auto times = stream.times();
  const auto kinds = stream.kinds();
  std::vector<Alarm> alarms;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const double probability = active[static_cast<std::size_t>(kinds[i])];
    if (probability < 0.0) continue;
    alarms.push_back(Alarm{times[i], kinds[i], probability});
  }
  return alarms;
}

FailurePredictor::Evaluation FailurePredictor::evaluate(const EventFrame& stream,
                                                        double threshold) const {
  const auto alarms = predict(stream, threshold);
  const auto horizon = static_cast<stats::TimeSec>(std::llround(horizon_s_));
  return score_alarms(alarms, stream.times_of(target_), horizon);
}

}  // namespace titan::analysis
