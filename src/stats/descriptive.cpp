#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace titan::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

std::vector<double> normalize_to_mean(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  const double m = mean(xs);
  if (m != 0.0) {
    for (auto& x : out) x /= m;
  }
  return out;
}

std::vector<std::size_t> sort_permutation(std::span<const double> keys) {
  std::vector<std::size_t> perm(keys.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  return perm;
}

std::vector<double> apply_permutation(std::span<const double> xs,
                                      std::span<const std::size_t> perm) {
  std::vector<double> out;
  out.reserve(perm.size());
  for (std::size_t i : perm) out.push_back(xs[i]);
  return out;
}

std::vector<double> average_ranks(std::span<const double> xs) {
  return average_ranks(xs, sort_permutation(xs));
}

std::vector<double> average_ranks(std::span<const double> xs,
                                  std::span<const std::size_t> order) {
  const std::size_t n = xs.size();
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Elements order[i..j] are tied; each gets the average 1-based rank.
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

}  // namespace titan::stats
