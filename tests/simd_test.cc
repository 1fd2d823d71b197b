// Bit-exactness of the SIMD kernels (util/simd.h). Batched apply: every
// variant must produce a byte-identical record slab for any input the
// database's batch walk can feed it, because the sweep goldens are byte
// goldens and MOBICACHE_SIMD may select any variant at runtime.
//
// The sizes cross the kernels' internal structure on purpose: n = 1 (below
// every unroll), 1023/1025 (straddle the AVX2 four-deep unroll's tail on
// both sides), 1024 (exact quads), plus 0 (must touch nothing). Input
// shapes cover random ids, heavy duplicates (the AVX2 quad collision
// bailout), strictly ascending walks, and timestamps whose *bits* matter:
// negative zero, denormals, infinities, and NaN payloads must all be
// bit-copied, never arithmetically laundered. AndPopcount: every variant
// returns the scalar count on random words, at lengths that cross the SSE2
// two-word step and the AVX2 two-accumulator split.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/simd.h"

namespace mobicache {
namespace simd {
namespace {

constexpr size_t kSlabRecords = 2048;

// A deterministic, non-trivial starting slab: versions and time bits vary
// per record so a kernel that writes the wrong slot cannot hide.
std::vector<Record16> SeedSlab() {
  std::vector<Record16> slab(kSlabRecords);
  for (size_t i = 0; i < kSlabRecords; ++i) {
    slab[i].version = 0x9E3779B97F4A7C15ull * (i + 1);
    slab[i].time = static_cast<double>(i) * 0.3125 - 17.0;
  }
  return slab;
}

struct Batch {
  std::vector<uint32_t> ids;
  std::vector<double> times;
};

Batch RandomBatch(size_t count, uint32_t seed, bool heavy_duplicates) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint32_t> id_dist(
      0, heavy_duplicates ? 7 : static_cast<uint32_t>(kSlabRecords - 1));
  std::uniform_real_distribution<double> t_dist(0.0, 1e6);
  Batch batch;
  batch.ids.reserve(count);
  batch.times.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    batch.ids.push_back(id_dist(rng));
    batch.times.push_back(t_dist(rng));
  }
  // Salt some entries with bit-pattern-sensitive doubles.
  const double specials[] = {
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::nextafter(1.0, 2.0),
  };
  for (size_t i = 0; i < count; ++i) {
    if (i % 97 == 3) batch.times[i] = specials[(i / 97) % 5];
  }
  return batch;
}

void ExpectSlabsBitIdentical(const std::vector<Record16>& got,
                             const std::vector<Record16>& want,
                             const std::string& label) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(Record16)),
            0)
      << label;
  if (::testing::Test::HasFailure()) {
    // Narrow the report to the first mismatching record.
    for (size_t i = 0; i < got.size(); ++i) {
      if (std::memcmp(&got[i], &want[i], sizeof(Record16)) != 0) {
        ADD_FAILURE() << label << ": first mismatch at record " << i
                      << " version " << got[i].version << " vs "
                      << want[i].version;
        break;
      }
    }
  }
}

class SimdKernelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SimdKernelTest, AllVariantsMatchScalarBitForBit) {
  const size_t count = GetParam();
  for (bool heavy : {false, true}) {
    const Batch batch =
        RandomBatch(count, static_cast<uint32_t>(0xC0FFEE + count), heavy);

    std::vector<Record16> reference = SeedSlab();
    ASSERT_TRUE(ApplyWithKernelForTesting("scalar", reference.data(),
                                          batch.ids.data(),
                                          batch.times.data(), count));

    for (const char* kernel : {"sse2", "avx2"}) {
      std::vector<Record16> slab = SeedSlab();
      if (!ApplyWithKernelForTesting(kernel, slab.data(), batch.ids.data(),
                                     batch.times.data(), count)) {
        continue;  // variant not supported on this CPU/arch
      }
      ExpectSlabsBitIdentical(slab, reference,
                              std::string(kernel) + " n=" +
                                  std::to_string(count) +
                                  (heavy ? " duplicates" : " random"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimdKernelTest,
                         ::testing::Values(0, 1, 3, 4, 1023, 1024, 1025));

TEST(SimdKernelTest, AscendingWalkMatchesScalar) {
  // The database feeds mostly-ascending id walks; keep one shape that the
  // prefetch lookahead definitely exercises in-bounds and out.
  const size_t count = 1024;
  Batch batch;
  for (size_t i = 0; i < count; ++i) {
    batch.ids.push_back(static_cast<uint32_t>(i % kSlabRecords));
    batch.times.push_back(static_cast<double>(i) * 1.5 + 0.25);
  }
  std::vector<Record16> reference = SeedSlab();
  ASSERT_TRUE(ApplyWithKernelForTesting("scalar", reference.data(),
                                        batch.ids.data(), batch.times.data(),
                                        count));
  for (const char* kernel : {"sse2", "avx2"}) {
    std::vector<Record16> slab = SeedSlab();
    if (!ApplyWithKernelForTesting(kernel, slab.data(), batch.ids.data(),
                                   batch.times.data(), count)) {
      continue;
    }
    ExpectSlabsBitIdentical(slab, reference, kernel);
  }
}

TEST(SimdKernelTest, DuplicateIdsApplyInOrderLastTimestampWins) {
  // Same id many times in one batch: version accumulates once per entry and
  // the final timestamp is the last entry's, on every variant.
  const size_t count = 9;
  std::vector<uint32_t> ids(count, 5);
  std::vector<double> times;
  for (size_t i = 0; i < count; ++i) {
    times.push_back(100.0 + static_cast<double>(i));
  }
  for (const char* kernel : {"scalar", "sse2", "avx2"}) {
    std::vector<Record16> slab = SeedSlab();
    const uint64_t version_before = slab[5].version;
    if (!ApplyWithKernelForTesting(kernel, slab.data(), ids.data(),
                                   times.data(), count)) {
      continue;
    }
    EXPECT_EQ(slab[5].version, version_before + count) << kernel;
    EXPECT_EQ(slab[5].time, 108.0) << kernel;
  }
}

TEST(SimdKernelTest, DispatcherResolvesToAKnownKernel) {
  const std::string name = ActiveKernelName();
  EXPECT_TRUE(name == "scalar" || name == "sse2" || name == "avx2") << name;
}

TEST(SimdKernelTest, UnknownKernelNameIsRejectedUntouched) {
  std::vector<Record16> slab = SeedSlab();
  const std::vector<Record16> before = slab;
  uint32_t id = 0;
  double t = 1.0;
  EXPECT_FALSE(ApplyWithKernelForTesting("neon", slab.data(), &id, &t, 1));
  EXPECT_EQ(std::memcmp(slab.data(), before.data(),
                        slab.size() * sizeof(Record16)),
            0);
}

TEST(SimdKernelTest, AndPopcountVariantsMatchScalar) {
  std::mt19937_64 rng(0x5EED);
  std::vector<uint64_t> a(40), b(40);
  for (int trial = 0; trial < 200; ++trial) {
    for (size_t w = 0; w < a.size(); ++w) {
      // Mix dense, sparse and all-ones words.
      a[w] = trial % 5 == 0 ? ~uint64_t{0} : rng();
      b[w] = trial % 3 == 0 ? rng() & rng() & rng() : rng();
    }
    const size_t words = static_cast<size_t>(trial) % (a.size() + 1);
    uint64_t want = 0;
    ASSERT_TRUE(AndPopcountWithKernelForTesting("scalar", a.data(), b.data(),
                                                words, &want));
    uint64_t naive = 0;
    for (size_t w = 0; w < words; ++w) {
      for (int bit = 0; bit < 64; ++bit) naive += ((a[w] & b[w]) >> bit) & 1;
    }
    ASSERT_EQ(want, naive) << "words=" << words;
    for (const char* kernel : {"sse2", "avx2"}) {
      uint64_t got = ~uint64_t{0};
      if (!AndPopcountWithKernelForTesting(kernel, a.data(), b.data(), words,
                                           &got)) {
        continue;  // variant not supported on this CPU/arch
      }
      EXPECT_EQ(got, want) << kernel << " words=" << words;
    }
    EXPECT_EQ(AndPopcount(a.data(), b.data(), words), want);
  }
  uint64_t untouched = 7;
  EXPECT_FALSE(AndPopcountWithKernelForTesting("neon", a.data(), b.data(), 1,
                                               &untouched));
  EXPECT_EQ(untouched, 7u);
}

}  // namespace
}  // namespace simd
}  // namespace mobicache
