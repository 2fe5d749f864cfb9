#include "logsim/quantize.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace titan::logsim {

namespace {

/// Decimals quantized() supports: 0 through 4.
constexpr int kMaxQuantizeDecimals = 4;

constexpr double kPow10[kMaxQuantizeDecimals + 1] = {1.0, 10.0, 100.0, 1000.0, 10000.0};

/// Fast-path inputs stay below this, so p = v * 10^d < 4e15 < 2^52.
constexpr double kFastLimit = 4e11;

/// The longest double at kMaxQuantizeDecimals fixed decimals: sign, every
/// integer digit of the largest double, point, decimals.
constexpr std::size_t kMaxFixedChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + kMaxQuantizeDecimals;

/// ulp of a finite p >= 0: 2^(e - 52) for a normal p in [2^e, 2^(e+1)),
/// and 0 below the normal range (where frac(p) is p itself, far from 1/2).
double ulp_of(double p) noexcept {
  const auto exponent_bits = std::bit_cast<std::uint64_t>(p) & 0x7ff0000000000000ULL;
  return std::bit_cast<double>(exponent_bits) * 0x1p-52;
}

double round_trip(double value, int decimals) {
  char buf[kMaxFixedChars];
  const char* const end =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed, decimals).ptr;
  (void)std::from_chars(buf, end, value);
  return value;
}

}  // namespace

std::optional<double> quantized_fast(double value, int decimals) noexcept {
  if (decimals < 0 || decimals > kMaxQuantizeDecimals) return std::nullopt;
  // Also false for NaN.  Both zeros print as themselves ("-0.0000").
  if (!(value >= 0.0 && value < kFastLimit)) return std::nullopt;
  if (value == 0.0) return value;
  const double scale = kPow10[decimals];
  const double p = value * scale;
  // The nearest integer by the 2^52 shift (0 <= p < 2^52, so the sum's ulp
  // is 1), without a branch.  Near-ties are refused next, so the tie rule
  // never matters.
  const double nearest = (p + 0x1p52) - 0x1p52;
  const double off = p - nearest;  // exact, in [-1/2, 1/2]
  if (0.5 - std::abs(off) <= ulp_of(p)) return std::nullopt;
  return nearest / scale;
}

double quantized(double value, int decimals) {
  if (decimals < 0 || decimals > kMaxQuantizeDecimals) {
    throw std::invalid_argument{"quantized: decimals must be in [0, 4]"};
  }
  if (const auto fast = quantized_fast(value, decimals)) return *fast;
  return round_trip(value, decimals);
}

}  // namespace titan::logsim
