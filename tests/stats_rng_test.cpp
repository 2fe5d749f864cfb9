#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <vector>

namespace titan::stats {
namespace {

using namespace std::string_view_literals;

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, LowEntropySeedsAreWellMixed) {
  // Seeds 0 and 1 must not produce correlated streams (SplitMix init).
  Rng a{0};
  Rng b{1};
  EXPECT_NE(a(), b());
  EXPECT_NE(a(), b());
}

TEST(Rng, ForkIsIndependentOfParentDraws) {
  // A fork taken after the parent has been advanced must equal a fork
  // taken from a fresh parent: adding a new consumer of randomness cannot
  // perturb existing streams.
  Rng advanced{7};
  (void)advanced();
  (void)advanced();
  Rng fresh{7};
  Rng a = advanced.fork("stream");
  Rng b = fresh.fork("stream");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ForkLabelsSeparateStreams) {
  Rng parent{7};
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  EXPECT_NE(a(), b());
}

TEST(Rng, IndexedForksSeparate) {
  Rng parent{7};
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t i = 0; i < 100; ++i) {
    Rng child = parent.fork("card", i);
    first_draws.insert(child());
  }
  EXPECT_EQ(first_draws.size(), 100U);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{11};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng{13};
  double acc = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / kN, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng{17};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7U);
  }
}

TEST(Rng, BelowZeroBoundIsZero) {
  Rng rng{17};
  EXPECT_EQ(rng.below(0), 0U);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng{19};
  std::vector<int> counts(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kN / 10.0, kN / 10.0 * 0.1);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng{23};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{29};
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(HashLabel, DistinctLabelsDistinctHashes) {
  EXPECT_NE(hash_label("dbe"), hash_label("otb"));
  EXPECT_NE(hash_label(""), hash_label("a"));
  EXPECT_EQ(hash_label("same"), hash_label("same"));
}

TEST(HashLabel, ExtendHashesPiecesAsAWhole) {
  // The published FNV-1a 64 vectors, then every split of one string.
  EXPECT_EQ(hash_label(""), kFnv1aBasis);
  EXPECT_EQ(hash_label("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hash_label("foobar"), 0x85944171f73967e8ULL);
  const std::string_view text = "titan\0tdf segment"sv;
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    EXPECT_EQ(hash_extend(hash_label(text.substr(0, cut)), text.substr(cut)), hash_label(text))
        << cut;
  }
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, ReseedReproduces) {
  Rng a{GetParam()};
  const auto first = a();
  a.reseed(GetParam());
  EXPECT_EQ(a(), first);
}

TEST_P(RngSeedSweep, NoShortCycles) {
  Rng rng{GetParam()};
  const auto first = rng();
  for (int i = 0; i < 10000; ++i) {
    ASSERT_NE(rng(), first) << "cycle at step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 2ULL, 42ULL, 0xdeadbeefULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace titan::stats
