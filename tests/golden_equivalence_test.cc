// Equivalence contract of the watermark cache, the flat history log, the
// incremental report builders, the shared-report delivery path, and the
// sharded cell engine: none of them may change anything observable.
// Enforced three ways:
//
//  1. per-strategy simulated cell counters against goldens recorded from the
//     seed implementation (per-entry timestamps, scanning journal, copied
//     reports) and from the single-heap cell engine that preceded the
//     sharded one, on the exact same configuration, at shards {1, 2, 4, 8};
//  2. a scenario sweep CSV against the seed implementation's bytes, at
//     --threads 1 and 4 (covers the cross-thread determinism contract too);
//  3. a randomized ClientCache run against a reference model with eager
//     per-entry timestamp semantics.

#include <cstdint>
#include <list>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/scenarios.h"
#include "core/cache.h"
#include "exp/megacell.h"
#include "exp/sweep.h"

namespace mobicache {
namespace {

// ---------------------------------------------------------------------------
// 1. Simulated cell counters vs seed goldens.

struct CellGolden {
  StrategyKind kind;
  uint64_t queries_answered;
  uint64_t hits;
  uint64_t misses;
  uint64_t items_invalidated;
  uint64_t reports_heard;
  uint64_t reports_missed;
};

// Recorded from the seed implementation (PR 1 tree) with the configuration
// in GoldenCellConfig below.
constexpr CellGolden kCellGoldens[] = {
    {StrategyKind::kTs, 4032u, 3684u, 348u, 293u, 340u, 140u},
    {StrategyKind::kAt, 4032u, 1968u, 2064u, 2066u, 340u, 140u},
    {StrategyKind::kSig, 4032u, 1833u, 2199u, 2231u, 340u, 140u},
    {StrategyKind::kGroupedAt, 4032u, 1010u, 3022u, 2991u, 340u, 140u},
    {StrategyKind::kHybridSig, 4032u, 1968u, 2064u, 2066u, 340u, 140u},
    {StrategyKind::kAdaptiveTs, 4032u, 3678u, 354u, 299u, 340u, 140u},
    {StrategyKind::kQuasiAt, 4032u, 1969u, 2063u, 2064u, 340u, 140u},
};

CellConfig GoldenCellConfig(StrategyKind kind) {
  CellConfig config;
  config.model.n = 500;
  config.model.mu = 0.002;
  config.model.lambda = 0.05;
  config.model.s = 0.3;
  config.model.L = 10.0;
  config.model.k = 8;
  config.strategy = kind;
  config.num_units = 8;
  config.hotspot_size = 30;
  config.seed = 1234;
  return config;
}

TEST(GoldenEquivalenceTest, CellCountersMatchSeedImplementation) {
  for (const CellGolden& golden : kCellGoldens) {
    for (uint32_t shards : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(StrategyName(golden.kind)) + " shards=" +
                   std::to_string(shards));
      MegaCellConfig mc;
      mc.cell = GoldenCellConfig(golden.kind);
      mc.num_shards = shards;
      MegaCell cell(mc);
      ASSERT_TRUE(cell.Build().ok());
      ASSERT_TRUE(cell.Run(5, 60).ok());
      const CellResult r = cell.result();
      EXPECT_EQ(r.queries_answered, golden.queries_answered);
      EXPECT_EQ(r.hits, golden.hits);
      EXPECT_EQ(r.misses, golden.misses);
      EXPECT_EQ(r.items_invalidated, golden.items_invalidated);
      EXPECT_EQ(r.reports_heard, golden.reports_heard);
      EXPECT_EQ(r.reports_missed, golden.reports_missed);
    }
  }
}

// Every integer CellResult field, the channel counters, the doubles
// bit-exactly, and the stateful-registry / asynchronous-mode counters, for
// the strategies kCellGoldens lacks plus one jittered delivery. Recorded
// from the single-heap cell engine (one simulator over every unit) before
// it was retired; the jittered record's doubles are the ones the 1-shard
// sharded engine produced then, which the single-heap engine matched on
// this configuration.
struct FullGolden {
  const char* name;
  StrategyKind kind;
  bool jittered;
  uint64_t queries_answered, hits, misses, reports_broadcast, reports_heard,
      reports_missed, quiet_report_intervals, quiet_skipped_intervals,
      items_invalidated, sim_events, updates_applied;
  uint64_t report_bits, uplink_query_bits, downlink_answer_bits, report_count,
      uplink_query_count, downlink_answer_count;
  double listen_seconds_total, mean_answer_latency, busy_seconds;
  uint64_t registry_control, registry_sent, registry_missed_asleep;
  uint64_t async_messages, async_deliveries;
};

constexpr FullGolden kFullGoldens[] = {
    {"nocache", StrategyKind::kNoCache, false, 4032u, 0u, 4032u, 60u, 340u,
     140u, 0u, 0u, 0u, 1287u, 673u, 0u, 516096u, 4128768u, 60u, 4032u, 4032u,
     0x0p+0, 0x1.2d23d7d603328p+3, 0x1.d07c84b5dcd72p+8, 0u, 0u, 0u, 0u, 0u},
    {"stateful", StrategyKind::kStateful, false, 5103u, 3071u, 2032u, 60u,
     340u, 140u, 0u, 0u, 0u, 6867u, 673u, 1314u, 285056u, 2080768u, 206u,
     2227u, 2032u, 0x0p+0, 0x0p+0, 0x1.d96d77318facfp+7, 195u, 146u, 53u, 0u,
     0u},
    {"ideal", StrategyKind::kIdeal, false, 5103u, 4761u, 342u, 60u, 340u,
     140u, 0u, 0u, 0u, 6867u, 673u, 0u, 43776u, 350208u, 60u, 342u, 342u,
     0x0p+0, 0x0p+0, 0x1.3b2fec56d5ce1p+5, 0u, 299u, 0u, 0u, 0u},
    {"async", StrategyKind::kAsync, false, 5103u, 3071u, 2032u, 60u, 340u,
     140u, 0u, 0u, 0u, 6867u, 673u, 5616u, 260096u, 2080768u, 684u, 2032u,
     2032u, 0x0p+0, 0x0p+0, 0x1.d54bc6a7ef87fp+7, 0u, 0u, 0u, 624u, 3603u},
    {"TS csma jitter", StrategyKind::kTs, true, 4032u, 3684u, 348u, 60u,
     340u, 140u, 0u, 0u, 293u, 1353u, 673u, 2354920u, 44544u, 356352u, 60u,
     348u, 348u, 0x1.7e12c48cb732fp+10, 0x1.bd041ecb22476p+3,
     0x1.1394e3bcd3591p+8, 0u, 0u, 0u, 0u, 0u},
};

TEST(GoldenEquivalenceTest, SingleHeapGoldensHoldAtAnyShardCount) {
  for (const FullGolden& g : kFullGoldens) {
    CellConfig config = GoldenCellConfig(g.kind);
    if (g.jittered) {
      config.delivery = DeliveryModelKind::kCsmaJitter;
      config.mean_jitter_seconds = 0.5;
    }
    for (uint32_t shards : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(g.name) + " shards=" + std::to_string(shards));
      MegaCellConfig mc;
      mc.cell = config;
      mc.num_shards = shards;
      MegaCell cell(mc);
      ASSERT_TRUE(cell.Build().ok());
      ASSERT_TRUE(cell.Run(5, 60).ok());
      const CellResult r = cell.result();
      EXPECT_EQ(r.queries_answered, g.queries_answered);
      EXPECT_EQ(r.hits, g.hits);
      EXPECT_EQ(r.misses, g.misses);
      EXPECT_EQ(r.reports_broadcast, g.reports_broadcast);
      EXPECT_EQ(r.reports_heard, g.reports_heard);
      EXPECT_EQ(r.reports_missed, g.reports_missed);
      EXPECT_EQ(r.quiet_report_intervals, g.quiet_report_intervals);
      EXPECT_EQ(r.quiet_skipped_intervals, g.quiet_skipped_intervals);
      EXPECT_EQ(r.items_invalidated, g.items_invalidated);
      EXPECT_EQ(r.sim_events, g.sim_events);
      EXPECT_EQ(r.updates_applied, g.updates_applied);
      EXPECT_EQ(r.channel.report_bits, g.report_bits);
      EXPECT_EQ(r.channel.uplink_query_bits, g.uplink_query_bits);
      EXPECT_EQ(r.channel.downlink_answer_bits, g.downlink_answer_bits);
      EXPECT_EQ(r.channel.report_count, g.report_count);
      EXPECT_EQ(r.channel.uplink_query_count, g.uplink_query_count);
      EXPECT_EQ(r.channel.downlink_answer_count, g.downlink_answer_count);
      EXPECT_EQ(r.listen_seconds_total, g.listen_seconds_total);
      EXPECT_EQ(r.mean_answer_latency, g.mean_answer_latency);
      EXPECT_EQ(r.channel.busy_seconds, g.busy_seconds);
      EXPECT_EQ(cell.registry_control_messages(), g.registry_control);
      EXPECT_EQ(cell.registry_invalidations_sent(), g.registry_sent);
      EXPECT_EQ(cell.registry_invalidations_missed_asleep(),
                g.registry_missed_asleep);
      EXPECT_EQ(cell.async_messages_broadcast(), g.async_messages);
      EXPECT_EQ(cell.async_deliveries(), g.async_deliveries);
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Sweep CSV bytes vs seed goldens, at several thread counts.

// Scenario 1, points=4, warmup=5, measure=40, units=5, seed=42, strategies
// TS/AT/SIG/NoCache, recorded from the seed implementation at --threads=1.
constexpr const char* kGoldenSweepCsv =
    R"(s,TS.model.e,TS.sim.e,TS.model.h,TS.sim.h,TS.model.bc,TS.sim.bc,AT.model.e,AT.sim.e,AT.model.h,AT.sim.h,AT.model.bc,AT.sim.bc,SIG.model.e,SIG.sim.e,SIG.model.h,SIG.sim.h,SIG.model.bc,SIG.sim.bc,nocache.model.e,nocache.sim.e,nocache.model.h,nocache.sim.h,nocache.model.bc,nocache.sim.bc
0,0.31814159,0.56699227,0.99841973,0.99845857,49674.868,12514.95,0.63210919,2.5183178,0.99841973,0.99960333,9.9950017,6.5,0.56418742,0.45116842,0.9984146,0.99801745,10464,10464,0.000999001,0.000999001,0,0,0,0
0.33333333,0.21226197,0.23883636,0.99763147,0.99642857,49674.868,14616,0.0022579739,0.002574653,0.55761175,0.61202496,9.9950017,10,0.37682923,0.10988165,0.99762634,0.99185974,10464,10464,0.000999001,0.000999001,0,0,0,0
0.66666667,0.10638236,0.013687145,0.99527414,0.93467933,49674.868,10505.25,0.001314141,0.0012985584,0.23988284,0.23076923,9.9950017,11,0.18906535,0.012634326,0.99526901,0.92920354,10464,10464,0.000999001,0.000999001,0,0,0,0
1,0.00050274857,0.00086002697,0,0,49674.868,13911.3,0.00099890115,0.0009989036,0,0,9.9950017,9.75,0.00089446553,0.00089446553,0,0,10464,10464,0.000999001,0.000999001,0,0,0,0
)";

std::string GoldenSweepCsvAtThreads(int threads) {
  SweepOptions options;
  options.points = 4;
  options.warmup_intervals = 5;
  options.measure_intervals = 40;
  options.num_units = 5;
  options.threads = threads;
  const StatusOr<SweepResult> sweep = RunScenarioSweep(
      PaperScenario::kScenario1,
      {StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kSig,
       StrategyKind::kNoCache},
      options);
  EXPECT_TRUE(sweep.ok()) << sweep.status().ToString();
  if (!sweep.ok()) return std::string();
  std::ostringstream csv;
  WriteSweepCsv(*sweep, csv);
  return csv.str();
}

TEST(GoldenEquivalenceTest, SweepCsvMatchesSeedBytesSingleThread) {
  EXPECT_EQ(GoldenSweepCsvAtThreads(1), kGoldenSweepCsv);
}

TEST(GoldenEquivalenceTest, SweepCsvMatchesSeedBytesFourThreads) {
  EXPECT_EQ(GoldenSweepCsvAtThreads(4), kGoldenSweepCsv);
}

// ---------------------------------------------------------------------------
// 3. Randomized ClientCache vs a reference model with eager semantics.

/// The seed implementation restated: ordered map + LRU list, and
/// ValidateAllThrough applied eagerly to every entry.
class ReferenceCache {
 public:
  explicit ReferenceCache(size_t capacity) : capacity_(capacity) {}

  const CacheEntry* Peek(ItemId id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
  }

  const CacheEntry* Get(ItemId id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return nullptr;
    Touch(id);
    return &it->second;
  }

  void Put(ItemId id, uint64_t value, SimTime timestamp) {
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      it->second = CacheEntry{value, timestamp};
      Touch(id);
      return;
    }
    if (capacity_ != 0 && entries_.size() >= capacity_) {
      const ItemId victim = lru_.back();
      lru_.pop_back();
      entries_.erase(victim);
      ++evictions_;
    }
    lru_.push_front(id);
    entries_[id] = CacheEntry{value, timestamp};
  }

  bool SetTimestamp(ItemId id, SimTime timestamp) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    it->second.timestamp = timestamp;
    return true;
  }

  void ValidateAllThrough(SimTime timestamp) {
    for (auto& [id, entry] : entries_) {
      if (entry.timestamp < timestamp) entry.timestamp = timestamp;
    }
  }

  bool Erase(ItemId id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    lru_.remove(id);
    entries_.erase(it);
    return true;
  }

  void Clear() {
    entries_.clear();
    lru_.clear();
  }

  size_t size() const { return entries_.size(); }
  uint64_t evictions() const { return evictions_; }

  std::vector<ItemId> Items() const {
    std::vector<ItemId> out;
    for (const auto& [id, entry] : entries_) out.push_back(id);
    return out;  // std::map iterates in ascending id order
  }

 private:
  void Touch(ItemId id) {
    lru_.remove(id);
    lru_.push_front(id);
  }

  size_t capacity_;
  std::map<ItemId, CacheEntry> entries_;
  std::list<ItemId> lru_;  // front = most recent
  uint64_t evictions_ = 0;
};

void RunRandomizedComparison(size_t capacity, uint32_t seed) {
  ClientCache cache(capacity);
  ReferenceCache reference(capacity);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<ItemId> pick_id(0, 40);
  SimTime clock = 0.0;

  for (int step = 0; step < 6000; ++step) {
    clock += 0.25;
    const ItemId id = pick_id(rng);
    switch (rng() % 16) {
      case 0:
        ASSERT_EQ(cache.Erase(id), reference.Erase(id));
        break;
      case 1:
        cache.ValidateAllThrough(clock);
        reference.ValidateAllThrough(clock);
        break;
      case 2:
        ASSERT_EQ(cache.SetTimestamp(id, clock), reference.SetTimestamp(id, clock));
        break;
      case 3: {
        const CacheEntry* a = cache.Get(id);
        const CacheEntry* b = reference.Get(id);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a != nullptr) {
          ASSERT_EQ(a->value, b->value);
          ASSERT_DOUBLE_EQ(a->timestamp, b->timestamp);
        }
        break;
      }
      case 4:
        if (rng() % 97 == 0) {
          cache.Clear();
          reference.Clear();
        }
        break;
      default: {
        const uint64_t value = rng();
        cache.Put(id, value, clock);
        reference.Put(id, value, clock);
        break;
      }
    }
    ASSERT_EQ(cache.size(), reference.size());
    if (step % 37 == 0) {
      ASSERT_EQ(cache.Items(), reference.Items());
      for (ItemId probe = 0; probe <= 40; ++probe) {
        const CacheEntry* a = cache.Peek(probe);
        const CacheEntry* b = reference.Peek(probe);
        ASSERT_EQ(a == nullptr, b == nullptr) << "id " << probe;
        if (a != nullptr) {
          ASSERT_DOUBLE_EQ(a->timestamp, b->timestamp) << "id " << probe;
        }
      }
    }
  }
  ASSERT_EQ(cache.lru_evictions(), reference.evictions());
}

TEST(GoldenEquivalenceTest, RandomizedCacheMatchesReferenceUnbounded) {
  RunRandomizedComparison(0, 1u);
  RunRandomizedComparison(0, 77u);
}

TEST(GoldenEquivalenceTest, RandomizedCacheMatchesReferenceSmallCapacity) {
  RunRandomizedComparison(4, 2u);
  RunRandomizedComparison(4, 78u);
}

TEST(GoldenEquivalenceTest, RandomizedCacheMatchesReferenceMediumCapacity) {
  RunRandomizedComparison(32, 3u);
  RunRandomizedComparison(32, 79u);
}

}  // namespace
}  // namespace mobicache
