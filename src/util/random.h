// Deterministic pseudo-random number generation and the distributions used
// by the mobile-caching model: exponential interarrival times (queries and
// updates), Bernoulli sleep decisions, Poisson counts, and Zipf skew for
// hot-spot extensions.
//
// The generator is xoshiro256** seeded via SplitMix64, which gives
// high-quality 64-bit streams, cheap construction, and full reproducibility
// across platforms (no reliance on libstdc++ distribution internals).

#ifndef MOBICACHE_UTIL_RANDOM_H_
#define MOBICACHE_UTIL_RANDOM_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace mobicache {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// Advances `state` and returns the next value of the sequence.
uint64_t SplitMix64(uint64_t* state);

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm,
/// reimplemented here). Passes BigCrush; period 2^256 - 1.
class Xoshiro256 {
 public:
  /// Seeds all 256 bits of state from `seed` via SplitMix64. Any seed value,
  /// including 0, produces a valid state.
  explicit Xoshiro256(uint64_t seed);

  /// Returns the next 64 uniformly distributed bits. Defined inline: the
  /// batched update drain draws twice per update, so the state transition
  /// must fuse into its caller's loop instead of paying a cross-TU call.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

/// Random engine exposing the distributions the simulator needs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}

  // The distributions below are defined inline: interarrival draws dominate
  // the batched update drain (one Exponential + one NextUint64 per update),
  // and out-of-line definitions cost a call per draw that the drain loop
  // cannot hide. The arithmetic is unchanged — identical IEEE operations in
  // identical order, so every stream is bit-identical to the out-of-line
  // build (the baseline x86-64 target has no FMA contraction to diverge).

  /// Uniform in [0, 1).
  double NextDouble() {
    // 53 top bits -> [0, 1) with full double precision.
    return static_cast<double>(gen_.Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  uint64_t NextUint64(uint64_t bound) {
    assert(bound > 0);
    // Lemire's method with rejection to remove modulo bias.
    uint64_t x = gen_.Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = gen_.Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Raw 64 random bits.
  uint64_t NextBits() { return gen_.Next(); }

  /// True with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Exponential with rate `lambda` (> 0); mean 1/lambda.
  double Exponential(double lambda) {
    assert(lambda > 0.0);
    // Inversion: -ln(1 - U) / lambda; 1 - U in (0, 1].
    double u = 1.0 - NextDouble();
    return -std::log(u) / lambda;
  }

  /// Poisson count with mean `mean` (>= 0). Exact inversion for small means,
  /// PTRD-free normal-approximation-with-rejection fallback for large means.
  uint64_t Poisson(double mean);

 private:
  Xoshiro256 gen_;
};

/// Precomputed Zipf(theta) sampler over {0, ..., n-1}; theta = 0 is uniform.
/// Used by the skewed update-rate and hot-spot extensions.
class ZipfDistribution {
 public:
  /// `n` must be >= 1 and `theta` >= 0.
  ZipfDistribution(uint64_t n, double theta);

  /// Samples a rank in [0, n), rank 0 being the most popular.
  uint64_t Sample(Rng& rng) const;

  /// Probability mass of rank `i`.
  double Pmf(uint64_t i) const;

  uint64_t n() const { return cdf_.size(); }
  double theta() const { return theta_; }

 private:
  double theta_;
  std::vector<double> cdf_;  // cumulative probabilities, cdf_[n-1] == 1.0
};

}  // namespace mobicache

#endif  // MOBICACHE_UTIL_RANDOM_H_
