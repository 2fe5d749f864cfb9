// Descriptive statistics helpers shared by all analyses.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace titan::stats {

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double variance(std::span<const double> xs);  ///< sample variance (n-1)
[[nodiscard]] double stddev(std::span<const double> xs);
/// p in [0,1]; linear interpolation between order statistics.  Empty input
/// returns 0.
[[nodiscard]] double percentile(std::vector<double> xs, double p);
[[nodiscard]] double median(std::vector<double> xs);

/// Divide every element by the mean of the series (the normalization used
/// in the paper's Figs. 16-19: "values have been normalized to average
/// value of the respective metrics").  A zero-mean series is returned
/// unchanged.
[[nodiscard]] std::vector<double> normalize_to_mean(std::span<const double> xs);

/// Average ranks (1-based) with ties sharing the average of their span --
/// the ranking used by the Spearman coefficient.
[[nodiscard]] std::vector<double> average_ranks(std::span<const double> xs);
/// The same ranks from `order`, any permutation that lists `xs` in
/// ascending order (e.g. sort_permutation's), without sorting again.
[[nodiscard]] std::vector<double> average_ranks(std::span<const double> xs,
                                                std::span<const std::size_t> order);

/// Indices that would sort `keys` ascending (stable).
[[nodiscard]] std::vector<std::size_t> sort_permutation(std::span<const double> keys);

/// Apply a permutation: out[i] = xs[perm[i]].
[[nodiscard]] std::vector<double> apply_permutation(std::span<const double> xs,
                                                    std::span<const std::size_t> perm);

}  // namespace titan::stats
