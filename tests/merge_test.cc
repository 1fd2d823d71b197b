// LoserTreeMerger correctness and allocation discipline. The merger is the
// heart of the MegaCell barrier replay (exp/megacell.cc), so beyond the
// randomized equivalence-vs-naive-reference checks this suite proves the
// allocation contract the replay path depends on: once capacity is warm, a
// full Reset/SetHead/Build/drain cycle performs zero heap allocations, and a
// longer MegaCell run does not allocate proportionally to the extra
// intervals it replays.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/megacell.h"
#include "util/merge.h"

#include "counting_new.h"

namespace mobicache {
namespace {

using Stream = std::vector<std::pair<double, size_t>>;  // (key, source rank)

/// Reference merge: per output record, linear-scan every source for the
/// smallest head, ties toward the lower rank — the selector the loser tree
/// replaced, kept as executable specification.
Stream NaiveMerge(const std::vector<std::vector<double>>& sources) {
  Stream out;
  std::vector<size_t> cursor(sources.size(), 0);
  for (;;) {
    size_t best = sources.size();
    for (size_t r = 0; r < sources.size(); ++r) {
      if (cursor[r] >= sources[r].size()) continue;
      if (best == sources.size() ||
          sources[r][cursor[r]] < sources[best][cursor[best]]) {
        best = r;
      }
    }
    if (best == sources.size()) return out;
    out.emplace_back(sources[best][cursor[best]], best);
    ++cursor[best];
  }
}

/// The same merge through LoserTreeMerger, driving it exactly like the
/// barrier replay does: SetHead the non-empty sources, Build, then pop and
/// Advance with the next key (or kExhausted) until the tree drains.
Stream TreeMerge(const std::vector<std::vector<double>>& sources,
                 LoserTreeMerger* merger) {
  Stream out;
  std::vector<size_t> cursor(sources.size(), 0);
  merger->Reset(sources.size());
  for (size_t r = 0; r < sources.size(); ++r) {
    if (!sources[r].empty()) merger->SetHead(r, sources[r][0]);
  }
  merger->Build();
  while (!merger->exhausted()) {
    const size_t r = merger->top();
    out.emplace_back(merger->top_key(), r);
    const size_t next = ++cursor[r];
    merger->Advance(next < sources[r].size() ? sources[r][next]
                                             : LoserTreeMerger::kExhausted);
  }
  return out;
}

TEST(LoserTreeMergerTest, SingleSource) {
  LoserTreeMerger m;
  const std::vector<std::vector<double>> sources{{1.0, 2.0, 3.0}};
  EXPECT_EQ(TreeMerge(sources, &m), NaiveMerge(sources));
}

TEST(LoserTreeMergerTest, AllSourcesEmpty) {
  LoserTreeMerger m;
  const std::vector<std::vector<double>> sources(5);
  m.Reset(sources.size());
  m.Build();
  EXPECT_TRUE(m.exhausted());
  EXPECT_TRUE(TreeMerge(sources, &m).empty());
}

TEST(LoserTreeMergerTest, EqualKeysPopInRankOrder) {
  // Every source holds the same keys: at each timestamp the merged stream
  // must drain rank 0 completely before rank 1, and so on — a lower rank
  // keeps winning re-matches while its key stays equal. This is the replay
  // tie-break (trace first, then ascending shard index) verbatim.
  for (size_t k : {2u, 3u, 8u}) {
    LoserTreeMerger m;
    std::vector<std::vector<double>> sources(k, {1.0, 1.0, 2.0});
    const Stream merged = TreeMerge(sources, &m);
    ASSERT_EQ(merged.size(), 3 * k);
    EXPECT_EQ(merged, NaiveMerge(sources));
    // First 2k pops: both 1.0 records of each rank, ranks ascending.
    for (size_t i = 0; i < 2 * k; ++i) {
      EXPECT_EQ(merged[i].first, 1.0) << "k=" << k << " i=" << i;
      EXPECT_EQ(merged[i].second, i / 2) << "k=" << k << " i=" << i;
    }
    // Last k pops: the 2.0 records, ranks ascending.
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(merged[2 * k + i].first, 2.0) << "k=" << k << " i=" << i;
      EXPECT_EQ(merged[2 * k + i].second, i) << "k=" << k << " i=" << i;
    }
  }
}

TEST(LoserTreeMergerTest, RandomizedEquivalenceVsNaive) {
  std::mt19937_64 rng(20260809);
  for (int round = 0; round < 200; ++round) {
    // Small integer-grid keys force heavy cross-source ties; lengths hit
    // empty sources and single-record logs; k spans below/at/above the
    // pairwise pre-merge threshold and a non-power-of-two.
    const size_t k = std::vector<size_t>{
        1, 2, 3, 4, 5, 8, 9, 32}[static_cast<size_t>(round % 8)];
    std::vector<std::vector<double>> sources(k);
    for (auto& src : sources) {
      const size_t len = rng() % 21;
      src.resize(len);
      for (double& key : src) key = 0.5 * static_cast<double>(rng() % 12);
      std::sort(src.begin(), src.end());
    }
    LoserTreeMerger m;
    EXPECT_EQ(TreeMerge(sources, &m), NaiveMerge(sources)) << "k=" << k;
  }
}

TEST(LoserTreeMergerTest, WarmMergeCycleIsAllocationFree) {
  std::mt19937_64 rng(7);
  std::vector<std::vector<double>> sources(9);
  for (auto& src : sources) {
    src.resize(64);
    for (double& key : src) key = static_cast<double>(rng() % 1000);
    std::sort(src.begin(), src.end());
  }
  LoserTreeMerger m;
  std::vector<size_t> cursor(sources.size());
  auto drain = [&] {
    cursor.assign(sources.size(), 0);
    m.Reset(sources.size());
    for (size_t r = 0; r < sources.size(); ++r) {
      m.SetHead(r, sources[r][0]);
    }
    m.Build();
    size_t popped = 0;
    while (!m.exhausted()) {
      const size_t r = m.top();
      ++popped;
      const size_t next = ++cursor[r];
      m.Advance(next < sources[r].size() ? sources[r][next]
                                         : LoserTreeMerger::kExhausted);
    }
    return popped;
  };
  ASSERT_EQ(drain(), 9 * 64u);  // first cycle warms keys_/tree_/winners_
  const size_t before = g_new_calls.load();
  ASSERT_EQ(drain(), 9 * 64u);
  EXPECT_EQ(g_new_calls.load() - before, 0u)
      << "a warm Reset/Build/drain cycle must not touch the heap";
}

/// Allocation proportionality of the full sharded engine: once the first
/// measured intervals warm every per-window buffer (shard logs, merged
/// refs, delivery scratch, journal buckets), additional intervals must not
/// allocate in proportion to the records they replay.
TEST(MegaCellAllocationTest, ExtraIntervalsAllocateSublinearly) {
  auto run_allocs = [](uint64_t measure, size_t* allocs) {
    MegaCellConfig mc;
    mc.cell.model.n = 1000;
    mc.cell.model.lambda = 0.1;
    mc.cell.model.mu = 1e-3;
    mc.cell.model.L = 10.0;
    mc.cell.model.s = 0.0;  // workaholics: every unit queries every interval
    mc.cell.strategy = StrategyKind::kNoCache;
    mc.cell.num_units = 16;
    mc.cell.hotspot_size = 8;
    mc.cell.seed = 99;
    mc.num_shards = 4;
    MegaCell cell(std::move(mc));
    ASSERT_TRUE(cell.Build().ok());
    const size_t before = g_new_calls.load();
    ASSERT_TRUE(cell.Run(/*warmup=*/2, measure).ok());
    *allocs = g_new_calls.load() - before;
  };
  size_t short_allocs = 0;
  size_t long_allocs = 0;
  ASSERT_NO_FATAL_FAILURE(run_allocs(6, &short_allocs));
  ASSERT_NO_FATAL_FAILURE(run_allocs(30, &long_allocs));
  // 5x the measured intervals. If every replayed window allocated (the
  // pre-slab behaviour), the long run would allocate ~5x the short one;
  // with warm buffers the 24 extra intervals should cost less than one
  // whole short run's worth of allocations on top.
  EXPECT_LT(long_allocs, 2 * short_allocs)
      << "short=" << short_allocs << " long=" << long_allocs;
}

}  // namespace
}  // namespace mobicache
