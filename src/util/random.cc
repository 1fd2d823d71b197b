#include "util/random.h"

#include <cassert>
#include <cmath>

namespace mobicache {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
}

uint64_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth inversion in the exp domain.
    const double limit = std::exp(-mean);
    double prod = NextDouble();
    uint64_t count = 0;
    while (prod > limit) {
      ++count;
      prod *= NextDouble();
    }
    return count;
  }
  // Split recursively: Poisson(a + b) = Poisson(a) + Poisson(b). Keeps each
  // leaf in the numerically safe inversion range without a normal
  // approximation (exact distribution, modest cost for the rates we use).
  const double half = mean / 2.0;
  return Poisson(half) + Poisson(mean - half);
}

ZipfDistribution::ZipfDistribution(uint64_t n, double theta) : theta_(theta) {
  assert(n >= 1);
  assert(theta >= 0.0);
  cdf_.resize(n);
  double norm = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    norm += 1.0 / std::pow(static_cast<double>(i + 1), theta);
  }
  double acc = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    acc += (1.0 / std::pow(static_cast<double>(i + 1), theta)) / norm;
    cdf_[i] = acc;
  }
  cdf_[n - 1] = 1.0;  // guard against rounding
}

uint64_t ZipfDistribution::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  // Binary search for the first index with cdf >= u.
  uint64_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double ZipfDistribution::Pmf(uint64_t i) const {
  assert(i < cdf_.size());
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

}  // namespace mobicache
