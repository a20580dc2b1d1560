#pragma once
// Deterministic, seedable pseudo-random generation.
//
// All randomness in the library flows through Rng so that every experiment
// is reproducible from a single 64-bit seed.  The generator is
// xoshiro256** seeded via splitmix64 (the reference seeding procedure).

#include <cstdint>
#include <numeric>
#include <vector>

#include "util/check.hpp"

namespace disp {

/// splitmix64 step; used for seeding and cheap hash-mixing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
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

  /// Uniform integer in [0, bound).  bound must be positive.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) {
    DISP_REQUIRE(bound > 0, "bound must be positive");
    // Rejection to avoid modulo bias: accept r >= (2^64 - bound) mod bound.
    // That threshold is below bound, so any r >= bound passes without the
    // second modulo; only r < bound needs it.
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= bound) return r % bound;
      if (r >= (~bound + 1) % bound) return r;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t intIn(std::int64_t lo, std::int64_t hi) {
    DISP_REQUIRE(lo <= hi, "empty range");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? (*this)() : below(span));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double real01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// true with probability p.
  [[nodiscard]] bool chance(double p) { return real01() < p; }

  /// Fisher–Yates shuffle of a vector or a span.
  template <typename Range>
  void shuffle(Range&& items) {
    for (std::size_t i = std::size(items); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Random permutation of [0, n).
  [[nodiscard]] std::vector<std::uint32_t> permutation(std::uint32_t n) {
    std::vector<std::uint32_t> p(n);
    std::iota(p.begin(), p.end(), 0U);
    shuffle(p);
    return p;
  }

  /// Derive an independent child generator (for per-component streams).
  [[nodiscard]] Rng fork() noexcept { return Rng((*this)()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int s) noexcept {
    return (x << s) | (x >> (64 - s));
  }
  std::uint64_t state_[4]{};
};

}  // namespace disp
