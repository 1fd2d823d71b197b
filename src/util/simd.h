// Data-parallel kernels behind one runtime dispatch. ApplyVersionTimestamp
// (the batched update path) walks a staging
// chunk of (item id, timestamp) pairs and read-modify-writes the 16-byte
// {uint64 version, double last_update} records of a cache-line-aligned slab:
// version + 1 and a bit-copied timestamp store, per record, in staging
// order, with software prefetch a fixed distance ahead.
//
// Every variant computes the identical result by construction: the version
// bump is a 64-bit integer add and the timestamp store copies the double's
// bits untouched — no floating-point arithmetic happens in any kernel, so
// there is nothing (FMA contraction, reassociation, width) for a vector ISA
// to perturb. Variants differ only in instruction selection: the scalar
// reference path uses plain loads/stores, the SSE2 path one 16-byte
// load/add/shuffle/store per record, and the AVX2 path the same record op
// VEX-encoded with a four-deep independent unroll.
//
// AndPopcount (SIG diagnosis) counts the set bits of a word-wise AND: the
// number of a cached item's subsets whose combined signature mismatches.
// Integer popcount is exact, so every variant returns the same count: the
// scalar reference uses the portable bit count, the SSE2 path a SWAR byte
// count on 16-byte lanes summed with PSADBW, and the AVX2 path the POPCNT
// instruction (rows are a few words long, where one POPCNT per word beats a
// vector lookup count). Twin-run tests assert the bit-exactness claim for
// both kernels (simd_test).
//
// Dispatch: resolved once, at first use, from CPU capability (the "avx2"
// variant needs both the AVX2 and the POPCNT CPUID bits); the
// MOBICACHE_SIMD environment variable ("scalar", "sse2", "avx2") forces a
// specific variant — CI runs the reduced benches under
// MOBICACHE_SIMD=scalar to prove goldens and event counts are
// kernel-independent.

#ifndef MOBICACHE_UTIL_SIMD_H_
#define MOBICACHE_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace mobicache {
namespace simd {

/// Layout-compatible view of the database's hot record: 16 bytes, version
/// in the low quadword, the IEEE-754 bits of the last-update time in the
/// high quadword. The slab must be 16-byte aligned (the database slab is
/// 64-byte aligned).
struct alignas(16) Record16 {
  uint64_t version;
  double time;
};
static_assert(sizeof(Record16) == 16, "record must stay one 16-byte slot");

/// For each i in [0, count): records[ids[i]].version += 1 and
/// records[ids[i]].time = times[i], in order (duplicate ids accumulate,
/// later entries win the timestamp). `count` may be 0.
void ApplyVersionTimestamp(Record16* records, const uint32_t* ids,
                           const double* times, size_t count);

/// Σ popcount(a[w] & b[w]) over w in [0, words). `words` may be 0.
uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t words);

/// Name of the kernel the dispatcher resolved ("scalar", "sse2", "avx2"),
/// for bench/CI visibility.
const char* ActiveKernelName();

/// Runs a specific kernel variant by name, bypassing the dispatcher, so the
/// bit-exactness tests can compare every variant against the scalar
/// reference in one process. Returns false (touching nothing) when the name
/// is unknown or the CPU lacks the variant.
bool ApplyWithKernelForTesting(const char* name, Record16* records,
                               const uint32_t* ids, const double* times,
                               size_t count);

/// AndPopcount through a specific variant by name, like
/// ApplyWithKernelForTesting. Returns false (leaving `*out` untouched) when
/// the name is unknown or the CPU lacks the variant.
bool AndPopcountWithKernelForTesting(const char* name, const uint64_t* a,
                                     const uint64_t* b, size_t words,
                                     uint64_t* out);

}  // namespace simd
}  // namespace mobicache

#endif  // MOBICACHE_UTIL_SIMD_H_
