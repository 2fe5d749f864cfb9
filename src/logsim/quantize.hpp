// Decimal quantization of the side artifacts' doubles: a value as the
// text artifacts carry it.  The job log prints its three doubles at four
// fixed decimals and the nvidia-smi sweep its temperature at one, so the
// binary formats store each double as std::from_chars reads back
// std::to_chars(value, fixed, decimals).  Every format of one study then
// carries the same values.
//
// quantized() gets that double without rendering digits for the common
// case.  For a finite 0 <= v < 4e11 it scales p = v * 10^d (one rounding,
// so p is within half an ulp of the exact product) and, unless frac(p)
// lies within ulp(p) of 1/2, takes N = the nearest integer to p.  N is
// then the nearest integer to the exact product too, i.e. the digits
// to_chars prints, and N < 2^53 is exact.  The quotient N / 10^d is
// correctly rounded, and so is from_chars of the decimal "N / 10^d": the
// same real number, so the same double.  Everything else (NaN, +-inf,
// negative or huge values, near-ties) takes the to_chars round trip.
#pragma once

#include <optional>

namespace titan::logsim {

/// `value` rounded to `decimals` fixed decimals and read back: bit for
/// bit std::from_chars(std::to_chars(value, fixed, decimals)).  Throws
/// std::invalid_argument when `decimals` is outside [0, 4].
[[nodiscard]] double quantized(double value, int decimals);

/// The fast path alone: the quantized value, or std::nullopt where
/// quantized() defers to the round trip (and for unsupported decimals).
[[nodiscard]] std::optional<double> quantized_fast(double value, int decimals) noexcept;

}  // namespace titan::logsim
