#include "util/simd.h"

#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define MOBICACHE_SIMD_X86 1
#endif

namespace mobicache {
namespace simd {

namespace {

/// Entries of slack the kernels prefetch ahead of the apply cursor; each
/// entry touches one random slab line. Matches the database's batch walk.
constexpr size_t kPrefetchDistance = 8;

void ApplyScalar(Record16* records, const uint32_t* ids, const double* times,
                 size_t count) {
  for (size_t i = 0; i < count; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kPrefetchDistance < count) {
      __builtin_prefetch(&records[ids[i + kPrefetchDistance]], /*rw=*/1,
                         /*locality=*/1);
    }
#endif
    Record16& rec = records[ids[i]];
    rec.version += 1;
    rec.time = times[i];
  }
}

uint64_t AndPopcountScalar(const uint64_t* a, const uint64_t* b,
                           size_t words) {
  uint64_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<uint64_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

#if defined(MOBICACHE_SIMD_X86)

/// One record update as a single 16-byte load/add/shuffle/store: the add
/// bumps the version lane (the +0 on the time lane perturbs nothing — it is
/// replaced below), and the shuffle splices the new timestamp's bits into
/// the high lane. Duplicate ids within a chunk are handled naturally: the
/// walk is in order and each step is a full read-modify-write.
inline void ApplyOneSse2(Record16* rec, double time) {
  const __m128i kOne = _mm_set_epi64x(0, 1);
  __m128i* const p = reinterpret_cast<__m128i*>(rec);
  const __m128i bumped = _mm_add_epi64(_mm_load_si128(p), kOne);
  const __m128d out =
      _mm_shuffle_pd(_mm_castsi128_pd(bumped), _mm_load_sd(&time), 0);
  _mm_store_pd(reinterpret_cast<double*>(rec), out);
}

void ApplySse2(Record16* records, const uint32_t* ids, const double* times,
               size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (i + kPrefetchDistance < count) {
      __builtin_prefetch(&records[ids[i + kPrefetchDistance]], /*rw=*/1,
                         /*locality=*/1);
    }
    ApplyOneSse2(&records[ids[i]], times[i]);
  }
}

/// Two words per step: the SWAR bit count within each byte (pairs, nibbles,
/// bytes), then PSADBW sums the sixteen byte counts into the two 64-bit
/// lanes of the accumulator. An odd last word takes the scalar count.
uint64_t AndPopcountSse2(const uint64_t* a, const uint64_t* b, size_t words) {
  const __m128i m1 = _mm_set1_epi8(0x55);
  const __m128i m2 = _mm_set1_epi8(0x33);
  const __m128i m4 = _mm_set1_epi8(0x0F);
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = zero;
  size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    __m128i x = _mm_and_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + w)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + w)));
    x = _mm_sub_epi8(x, _mm_and_si128(_mm_srli_epi64(x, 1), m1));
    x = _mm_add_epi8(_mm_and_si128(x, m2),
                     _mm_and_si128(_mm_srli_epi64(x, 2), m2));
    x = _mm_and_si128(_mm_add_epi8(x, _mm_srli_epi64(x, 4)), m4);
    acc = _mm_add_epi64(acc, _mm_sad_epu8(x, zero));
  }
  uint64_t count =
      static_cast<uint64_t>(_mm_cvtsi128_si64(acc)) +
      static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)));
  if (w < words) count += static_cast<uint64_t>(std::popcount(a[w] & b[w]));
  return count;
}

#if defined(__GNUC__) || defined(__clang__)
#define MOBICACHE_TARGET_AVX2 __attribute__((target("avx2")))
#define MOBICACHE_TARGET_AVX2_POPCNT __attribute__((target("avx2,popcnt")))
#else
#define MOBICACHE_TARGET_AVX2
#define MOBICACHE_TARGET_AVX2_POPCNT
#endif

/// Same record op VEX-encoded, unrolled four deep. The four record updates
/// are independent unless ids collide; collisions within the quad must
/// still apply in order, so the unrolled body is used only when the four
/// slots are pairwise distinct — the in-order scalar tail handles the rest.
/// (Integer adds and bit copies only: no FP arithmetic, so the AVX target
/// attribute cannot change any result.)
MOBICACHE_TARGET_AVX2 void ApplyAvx2(Record16* records, const uint32_t* ids,
                                     const double* times, size_t count) {
  const __m128i kOne = _mm_set_epi64x(0, 1);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    if (i + kPrefetchDistance + 3 < count) {
      __builtin_prefetch(&records[ids[i + kPrefetchDistance]], 1, 1);
      __builtin_prefetch(&records[ids[i + kPrefetchDistance + 1]], 1, 1);
      __builtin_prefetch(&records[ids[i + kPrefetchDistance + 2]], 1, 1);
      __builtin_prefetch(&records[ids[i + kPrefetchDistance + 3]], 1, 1);
    }
    const uint32_t a = ids[i], b = ids[i + 1], c = ids[i + 2], d = ids[i + 3];
    if (a != b && a != c && a != d && b != c && b != d && c != d) {
      __m128i* const pa = reinterpret_cast<__m128i*>(&records[a]);
      __m128i* const pb = reinterpret_cast<__m128i*>(&records[b]);
      __m128i* const pc = reinterpret_cast<__m128i*>(&records[c]);
      __m128i* const pd = reinterpret_cast<__m128i*>(&records[d]);
      const __m128i ra = _mm_add_epi64(_mm_load_si128(pa), kOne);
      const __m128i rb = _mm_add_epi64(_mm_load_si128(pb), kOne);
      const __m128i rc = _mm_add_epi64(_mm_load_si128(pc), kOne);
      const __m128i rd = _mm_add_epi64(_mm_load_si128(pd), kOne);
      _mm_store_pd(reinterpret_cast<double*>(pa),
                   _mm_shuffle_pd(_mm_castsi128_pd(ra),
                                  _mm_load_sd(&times[i]), 0));
      _mm_store_pd(reinterpret_cast<double*>(pb),
                   _mm_shuffle_pd(_mm_castsi128_pd(rb),
                                  _mm_load_sd(&times[i + 1]), 0));
      _mm_store_pd(reinterpret_cast<double*>(pc),
                   _mm_shuffle_pd(_mm_castsi128_pd(rc),
                                  _mm_load_sd(&times[i + 2]), 0));
      _mm_store_pd(reinterpret_cast<double*>(pd),
                   _mm_shuffle_pd(_mm_castsi128_pd(rd),
                                  _mm_load_sd(&times[i + 3]), 0));
    } else {
      ApplyOneSse2(&records[a], times[i]);
      ApplyOneSse2(&records[b], times[i + 1]);
      ApplyOneSse2(&records[c], times[i + 2]);
      ApplyOneSse2(&records[d], times[i + 3]);
    }
  }
  for (; i < count; ++i) ApplyOneSse2(&records[ids[i]], times[i]);
}

/// One POPCNT per word, two independent accumulators.
MOBICACHE_TARGET_AVX2_POPCNT uint64_t AndPopcountAvx2(const uint64_t* a,
                                                      const uint64_t* b,
                                                      size_t words) {
  uint64_t even = 0, odd = 0;
  size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    even += static_cast<uint64_t>(_mm_popcnt_u64(a[w] & b[w]));
    odd += static_cast<uint64_t>(_mm_popcnt_u64(a[w + 1] & b[w + 1]));
  }
  if (w < words) even += static_cast<uint64_t>(_mm_popcnt_u64(a[w] & b[w]));
  return even + odd;
}

/// The "avx2" variant runs VEX-encoded apply code and the POPCNT
/// instruction; POPCNT has its own CPUID bit, which a hypervisor can hide
/// while still exposing AVX2, so both are required.
bool CpuHasAvx2Variant() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
}

#endif  // MOBICACHE_SIMD_X86

using ApplyFn = void (*)(Record16*, const uint32_t*, const double*, size_t);
using AndPopcountFn = uint64_t (*)(const uint64_t*, const uint64_t*, size_t);

struct Dispatch {
  ApplyFn apply;
  AndPopcountFn and_popcount;
  const char* name;
};

Dispatch Resolve() {
  const char* forced = std::getenv("MOBICACHE_SIMD");
  const Dispatch scalar{ApplyScalar, AndPopcountScalar, "scalar"};
#if defined(MOBICACHE_SIMD_X86)
  const Dispatch sse2{ApplySse2, AndPopcountSse2, "sse2"};
  const Dispatch avx2{ApplyAvx2, AndPopcountAvx2, "avx2"};
  if (forced != nullptr) {
    if (std::strcmp(forced, "scalar") == 0) return scalar;
    if (std::strcmp(forced, "sse2") == 0) return sse2;
    if (std::strcmp(forced, "avx2") == 0 && CpuHasAvx2Variant()) return avx2;
    // Unknown value (or an unsupported request): fall through to auto.
  }
  if (CpuHasAvx2Variant()) return avx2;
  return sse2;
#else
  (void)forced;
  return scalar;
#endif
}

const Dispatch& Resolved() {
  static const Dispatch dispatch = Resolve();
  return dispatch;
}

}  // namespace

void ApplyVersionTimestamp(Record16* records, const uint32_t* ids,
                           const double* times, size_t count) {
  if (count == 0) return;
  Resolved().apply(records, ids, times, count);
}

uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t words) {
  return Resolved().and_popcount(a, b, words);
}

const char* ActiveKernelName() { return Resolved().name; }

bool ApplyWithKernelForTesting(const char* name, Record16* records,
                               const uint32_t* ids, const double* times,
                               size_t count) {
  if (std::strcmp(name, "scalar") == 0) {
    ApplyScalar(records, ids, times, count);
    return true;
  }
#if defined(MOBICACHE_SIMD_X86)
  if (std::strcmp(name, "sse2") == 0) {
    ApplySse2(records, ids, times, count);
    return true;
  }
  if (std::strcmp(name, "avx2") == 0 && CpuHasAvx2Variant()) {
    ApplyAvx2(records, ids, times, count);
    return true;
  }
#endif
  return false;
}

bool AndPopcountWithKernelForTesting(const char* name, const uint64_t* a,
                                     const uint64_t* b, size_t words,
                                     uint64_t* out) {
  if (std::strcmp(name, "scalar") == 0) {
    *out = AndPopcountScalar(a, b, words);
    return true;
  }
#if defined(MOBICACHE_SIMD_X86)
  if (std::strcmp(name, "sse2") == 0) {
    *out = AndPopcountSse2(a, b, words);
    return true;
  }
  if (std::strcmp(name, "avx2") == 0 && CpuHasAvx2Variant()) {
    *out = AndPopcountAvx2(a, b, words);
    return true;
  }
#endif
  return false;
}

}  // namespace simd
}  // namespace mobicache
