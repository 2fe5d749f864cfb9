// logsim::quantized against its oracle, the std::to_chars/std::from_chars
// round trip, bit for bit: over the job doubles of two simulated studies,
// over random doubles, over both neighbours of every decimal tie the fast
// path must refuse, and over the special values.  The fast path alone
// (quantized_fast) is checked too, wherever it answers.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/facility.hpp"
#include "logsim/joblog.hpp"
#include "logsim/quantize.hpp"
#include "stats/rng.hpp"

namespace titan::logsim {
namespace {

double round_trip(double value, int decimals) {
  char buf[512];
  const char* const end =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed, decimals).ptr;
  double out = 0.0;
  (void)std::from_chars(buf, end, out);
  return out;
}

/// Values checked, fast-path answers, and mismatches against the oracle.
struct Tally {
  std::size_t values = 0;
  std::size_t fast = 0;
  std::size_t mismatches = 0;
};

void check(double value, int decimals, Tally& tally) {
  ++tally.values;
  const auto expected = std::bit_cast<std::uint64_t>(round_trip(value, decimals));
  bool ok = std::bit_cast<std::uint64_t>(quantized(value, decimals)) == expected;
  if (const auto fast = quantized_fast(value, decimals)) {
    ++tally.fast;
    ok = ok && std::bit_cast<std::uint64_t>(*fast) == expected;
  }
  if (!ok && ++tally.mismatches <= 5) {
    ADD_FAILURE() << "value " << std::hexfloat << value << " at " << decimals << " decimals";
  }
}

TEST(Quantize, JobDoublesOfTwoStudiesTakeTheFastPath) {
  for (const std::uint64_t seed : {20151115ULL, 42ULL}) {
    const auto study = core::run_study(core::default_config(seed));
    Tally tally;
    for (const auto& job : study.trace.jobs()) {
      for (const double value : {job.gpu_core_hours, job.max_memory_gb, job.total_memory_gb}) {
        check(value, 4, tally);
      }
    }
    for (const auto& record : study.final_snapshot.records) check(record.temperature_f, 1, tally);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(tally.mismatches, 0U);
    EXPECT_GT(tally.values, 300000U);
    // Simulated doubles are finite, non-negative and almost never within
    // an ulp of a decimal tie.
    EXPECT_GE(tally.fast * 1000, tally.values * 999) << tally.fast << " of " << tally.values;
  }
}

TEST(Quantize, RandomDoubles) {
  stats::Rng rng{20241019};
  Tally tally;
  for (std::size_t i = 0; i < 1'200'000; ++i) {
    double value = 0.0;
    switch (i % 4) {
      case 0: value = rng.uniform(0.0, 1000.0); break;
      case 1: value = std::exp2(rng.uniform(-40.0, 39.0)); break;  // up to 5.5e11
      case 2: value = rng.uniform(0.0, 4e11); break;
      default: value = std::bit_cast<double>(rng()); break;  // any sign, NaNs, infinities
    }
    check(value, i % 2 == 0 ? 4 : 1, tally);
  }
  EXPECT_EQ(tally.mismatches, 0U);
  EXPECT_GT(tally.fast, tally.values / 2);
}

TEST(Quantize, NeighboursOfDecimalTies) {
  // (2k+1) / (2 * 10^d) is a tie at d decimals; the double nearest to it
  // and both of its neighbours sit within an ulp or two of the tie.
  for (const int decimals : {4, 1}) {
    const double scale = 2.0 * std::pow(10.0, decimals);
    Tally tally;
    for (std::int64_t k = 0; k < 2'000'000; ++k) {
      const double tie = static_cast<double>(2 * k + 1) / scale;
      check(tie, decimals, tally);
      check(std::nextafter(tie, 0.0), decimals, tally);
      check(std::nextafter(tie, std::numeric_limits<double>::infinity()), decimals, tally);
    }
    SCOPED_TRACE("decimals " + std::to_string(decimals));
    EXPECT_EQ(tally.mismatches, 0U);
    EXPECT_EQ(tally.values, 6'000'000U);
  }
}

TEST(Quantize, SpecialValues) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             DBL_MAX,
                             -DBL_MAX,
                             DBL_MIN,
                             std::numeric_limits<double>::denorm_min(),
                             4e11,
                             std::nextafter(4e11, 0.0),
                             0.00005,
                             0.05,
                             0.25};
  for (const int decimals : {0, 1, 2, 3, 4}) {
    Tally tally;
    for (const double value : specials) check(value, decimals, tally);
    EXPECT_EQ(tally.mismatches, 0U) << decimals;
  }
  // Signed zeros keep their sign on the fast path.
  EXPECT_TRUE(std::signbit(*quantized_fast(-0.0, 4)));
  EXPECT_FALSE(std::signbit(*quantized_fast(0.0, 4)));
  // What the fast path leaves to the round trip.
  for (const double value : {-1.0, 4e11, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 0.00005, 0.25}) {
    EXPECT_FALSE(quantized_fast(value, value == 0.25 ? 1 : 4).has_value()) << value;
  }
  EXPECT_THROW((void)quantized(1.0, 5), std::invalid_argument);
  EXPECT_THROW((void)quantized(1.0, -1), std::invalid_argument);
}

}  // namespace
}  // namespace titan::logsim
