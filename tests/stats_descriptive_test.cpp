#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace titan::stats {
namespace {

TEST(Descriptive, MeanAndVariance) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, EmptyInputs) {
  const std::vector<double> empty;
  EXPECT_EQ(mean(empty), 0.0);
  EXPECT_EQ(variance(empty), 0.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Descriptive, SingleElement) {
  const std::vector<double> one{42.0};
  EXPECT_EQ(mean(one), 42.0);
  EXPECT_EQ(variance(one), 0.0);
  EXPECT_EQ(median({42.0}), 42.0);
}

TEST(Descriptive, PercentileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
}

TEST(Descriptive, PercentileClampsP) {
  const std::vector<double> xs{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.5), 3.0);
}

TEST(Descriptive, NormalizeToMean) {
  const std::vector<double> xs{1, 2, 3};
  const auto norm = normalize_to_mean(xs);
  EXPECT_DOUBLE_EQ(norm[0], 0.5);
  EXPECT_DOUBLE_EQ(norm[1], 1.0);
  EXPECT_DOUBLE_EQ(norm[2], 1.5);
  EXPECT_DOUBLE_EQ(mean(norm), 1.0);
}

TEST(Descriptive, NormalizeZeroMeanUnchanged) {
  const std::vector<double> xs{-1, 0, 1};
  const auto norm = normalize_to_mean(xs);
  EXPECT_EQ(norm, xs);
}

TEST(Descriptive, AverageRanksNoTies) {
  const std::vector<double> xs{30, 10, 20};
  const auto ranks = average_ranks(xs);
  EXPECT_DOUBLE_EQ(ranks[0], 3.0);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[2], 2.0);
}

TEST(Descriptive, AverageRanksWithTies) {
  const std::vector<double> xs{5, 5, 1, 9};
  const auto ranks = average_ranks(xs);
  EXPECT_DOUBLE_EQ(ranks[0], 2.5);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 1.0);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(Descriptive, AverageRanksAllTied) {
  const std::vector<double> xs{7, 7, 7};
  const auto ranks = average_ranks(xs);
  for (const double r : ranks) EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(Descriptive, AverageRanksFromAnyAscendingOrder) {
  // Ties may be listed in any order; the ranks come out the same.
  const std::vector<double> xs{5, 5, 1, 9, 5};
  const std::vector<std::size_t> order{2, 4, 0, 1, 3};
  EXPECT_EQ(average_ranks(xs, order), average_ranks(xs));
}

TEST(Descriptive, RankSumInvariant) {
  // Sum of ranks == n(n+1)/2 regardless of ties.
  const std::vector<double> xs{3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  const auto ranks = average_ranks(xs);
  double total = 0.0;
  for (const double r : ranks) total += r;
  EXPECT_DOUBLE_EQ(total, 55.0);
}

TEST(Descriptive, SortPermutationStable) {
  const std::vector<double> keys{2, 1, 2, 0};
  const auto perm = sort_permutation(keys);
  EXPECT_EQ(perm, (std::vector<std::size_t>{3, 1, 0, 2}));
}

TEST(Descriptive, ApplyPermutation) {
  const std::vector<double> xs{10, 20, 30};
  const std::vector<std::size_t> perm{2, 0, 1};
  EXPECT_EQ(apply_permutation(xs, perm), (std::vector<double>{30, 10, 20}));
}

}  // namespace
}  // namespace titan::stats
