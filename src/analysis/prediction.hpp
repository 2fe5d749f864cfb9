// Precursor-based failure prediction.
//
// Observation 9 motivates it directly: "doing correlation analysis
// between different types of errors helps us understand which errors are
// more likely to be followed by another type of error" -- and the related
// work the paper cites ([11-13]) turns such co-occurrence statistics into
// failure predictors that trigger proactive action (checkpoint now,
// drain the node).  This module implements that loop:
//
//   1. fit:      learn P(target kind within horizon | precursor kind)
//                from a training slice of the event stream,
//   2. predict:  fire an alarm whenever a precursor with learned
//                probability >= threshold is seen,
//   3. evaluate: precision / recall / F1 of the alarms against the
//                evaluation slice.
#pragma once

#include <vector>

#include "analysis/event_frame.hpp"
#include "analysis/xid_matrix.hpp"

namespace titan::analysis {

/// A learned precursor rule: seeing `precursor` predicts `target` within
/// `horizon_s` with the observed conditional probability.
struct PrecursorRule {
  xid::ErrorKind precursor{};
  xid::ErrorKind target{};
  double probability = 0.0;   ///< P(target within horizon | precursor), training
  std::uint64_t support = 0;  ///< precursor occurrences in training
};

class FailurePredictor {
 public:
  /// Learn rules for predicting `target` from a training stream.
  /// Rules with support below `min_support` are discarded (they would be
  /// noise); same-kind rules are kept only when `allow_self` (a burst of
  /// the target predicts more of it, which is true but operationally
  /// uninteresting).  Flat per-kind counters over the time/kind columns;
  /// rules are ordered by descending probability with enum order breaking
  /// ties.
  static FailurePredictor fit(const EventFrame& training, xid::ErrorKind target,
                              double horizon_s, std::uint64_t min_support = 5,
                              bool allow_self = false);

  [[nodiscard]] const std::vector<PrecursorRule>& rules() const noexcept { return rules_; }
  [[nodiscard]] xid::ErrorKind target() const noexcept { return target_; }
  [[nodiscard]] double horizon_s() const noexcept { return horizon_s_; }

  /// An alarm: at `time`, the predictor claims `target` will occur within
  /// the horizon (machine-wide).
  struct Alarm {
    stats::TimeSec time = 0;
    xid::ErrorKind precursor{};
    double probability = 0.0;
  };

  /// Fire alarms over a stream using rules with probability >= threshold.
  [[nodiscard]] std::vector<Alarm> predict(const EventFrame& stream, double threshold) const;

  /// Evaluation against ground truth.
  struct Evaluation {
    std::size_t alarms = 0;
    std::size_t true_positives = 0;   ///< alarms with target inside horizon
    std::size_t targets = 0;          ///< target occurrences in the stream
    std::size_t targets_covered = 0;  ///< targets preceded by an alarm

    [[nodiscard]] double precision() const noexcept {
      return alarms > 0 ? static_cast<double>(true_positives) / static_cast<double>(alarms)
                        : 0.0;
    }
    [[nodiscard]] double recall() const noexcept {
      return targets > 0
                 ? static_cast<double>(targets_covered) / static_cast<double>(targets)
                 : 0.0;
    }
    [[nodiscard]] double f1() const noexcept {
      const double p = precision();
      const double r = recall();
      return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
    }
  };

  /// Target times come straight from the frame's per-kind CSR slice (zero
  /// copy).
  [[nodiscard]] Evaluation evaluate(const EventFrame& stream, double threshold) const;

 private:
  xid::ErrorKind target_{};
  double horizon_s_ = 0.0;
  std::vector<PrecursorRule> rules_;
};

}  // namespace titan::analysis
