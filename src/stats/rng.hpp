// Deterministic random number generation for the whole framework.
//
// Every stochastic component in titanrel draws from an Rng that is derived,
// via SplitMix64 stream splitting, from a single campaign seed.  This makes
// every figure reproduction bit-reproducible across runs and platforms
// (no std::random_device, no distribution objects from <random> whose
// sequences are implementation-defined).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string_view>

namespace titan::stats {

/// SplitMix64 step: the canonical 64-bit finalizer-based generator.
/// Used both as a seeding primitive and for stream derivation.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a 64 offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64 prime: the multiplier each byte step applies.
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// FNV-1a 64 carried on from state `h` over `bytes`, so a body hashed in
/// pieces hashes as a whole: hash_extend(hash_label(a), b) ==
/// hash_label(a + b).
[[nodiscard]] constexpr std::uint64_t hash_extend(std::uint64_t h,
                                                  std::string_view bytes) noexcept {
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// FNV-1a 64 carried on from state `h` over the 8 little-endian bytes of
/// `value` (independent of host byte order).
[[nodiscard]] constexpr std::uint64_t hash_extend_u64(std::uint64_t h,
                                                      std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffU;
    h *= kFnv1aPrime;
  }
  return h;
}

/// FNV-1a over a label, used to derive named sub-streams so that adding a
/// new consumer of randomness never perturbs the draws of existing ones.
[[nodiscard]] constexpr std::uint64_t hash_label(std::string_view label) noexcept {
  return hash_extend(kFnv1aBasis, label);
}

/// xoshiro256** 1.0 (Blackman & Vigna).  Small, fast, and with known-good
/// statistical properties; state is seeded through SplitMix64 so that
/// low-entropy seeds (0, 1, 2, ...) still yield well-mixed streams.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a raw 64-bit seed.
  explicit constexpr Rng(std::uint64_t seed) noexcept { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) noexcept {
    seed_ = seed;
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derive an independent named sub-stream.  The child stream's sequence
  /// depends only on (parent seed, label), never on how many draws the
  /// parent has made -- call order between siblings cannot matter.
  [[nodiscard]] constexpr Rng fork(std::string_view label) const noexcept {
    std::uint64_t mix = seed_;
    mix = splitmix64(mix) ^ hash_label(label);
    return Rng{mix};
  }

  /// Derive an independent indexed sub-stream (e.g. one per GPU card).
  [[nodiscard]] constexpr Rng fork(std::string_view label, std::uint64_t index) const noexcept {
    std::uint64_t mix = seed_;
    mix = splitmix64(mix) ^ hash_label(label);
    mix ^= index * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL;
    return Rng{mix};
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return std::numeric_limits<result_type>::max(); }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).  Uses the top 53 bits.
  [[nodiscard]] constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound).  Lemire's nearly-divisionless method.
  [[nodiscard]] constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>((*this)()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t seed_ = 0;  ///< construction seed, the fork() base
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace titan::stats
