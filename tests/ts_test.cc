#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/cache.h"
#include "core/ts.h"
#include "counting_new.h"
#include "db/database.h"
#include "util/random.h"
#include "window_oracle.h"

namespace mobicache {
namespace {

// L = 10 s, k = 3 intervals -> w = 30 s.
constexpr double kL = 10.0;
constexpr uint64_t kK = 3;

TsReport Build(TsServerStrategy& server, uint64_t interval) {
  Report report;
  server.BuildReportInto(kL * static_cast<double>(interval), interval,
                         &report);
  return std::get<TsReport>(report);
}

TEST(TsServerTest, ReportsItemsInWindowWithTimestamps) {
  Database db(100, 1);
  TsServerStrategy server(&db, kL, kK);
  EXPECT_DOUBLE_EQ(server.window(), 30.0);

  db.ApplyUpdate(1, 5.0);    // inside window at T=30
  db.ApplyUpdate(2, 25.0);   // inside
  const TsReport report = Build(server, 3);  // T=30, window (0, 30]
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.entries[0].id, 1u);
  EXPECT_DOUBLE_EQ(report.entries[0].updated_at, 5.0);
  EXPECT_EQ(report.entries[1].id, 2u);
  EXPECT_DOUBLE_EQ(report.window, 30.0);
  EXPECT_DOUBLE_EQ(report.timestamp, 30.0);
}

TEST(TsServerTest, OldUpdatesAgeOutOfTheWindow) {
  Database db(100, 1);
  TsServerStrategy server(&db, kL, kK);
  db.ApplyUpdate(1, 5.0);
  // At T=40 the window is (10, 40]: the update at 5.0 is gone.
  EXPECT_TRUE(Build(server, 4).entries.empty());
}

TEST(TsServerTest, GappedBuildsMatchTheWindowOracle) {
  // One server builds over a seeded update stream at gapped intervals:
  // consecutive, a gap below k, a gap of exactly k, and gaps above k. Each
  // report must list exactly the items last updated in (T_i - w, T_i],
  // with those timestamps, whatever the distance to the previous build.
  constexpr uint64_t kItems = 256;
  Database db(kItems, 5);
  TsServerStrategy server(&db, kL, kK);
  db.SetJournalBucketWidth(kL);
  db.SetRetention(server.retention());
  Rng rng(17);
  const uint64_t kBuilds[] = {1, 2, 3, 5, 6, 9, 10, 14, 19, 30, 31, 33};
  uint64_t applied_through = 0;
  for (const uint64_t interval : kBuilds) {
    SCOPED_TRACE("interval " + std::to_string(interval));
    // Updates for every interval since the last build, strictly inside
    // each one, with heavy repetition so carried entries get superseded.
    for (; applied_through < interval; ++applied_through) {
      const double start = kL * static_cast<double>(applied_through);
      const uint64_t count = 5 + rng.NextUint64(40);
      const double step = kL / static_cast<double>(count + 1);
      for (uint64_t i = 0; i < count; ++i) {
        db.ApplyUpdate(static_cast<ItemId>(rng.NextUint64(kItems)),
                       start + step * static_cast<double>(i + 1));
      }
    }
    const SimTime now = kL * static_cast<double>(interval);
    const TsReport report = Build(server, interval);
    const std::vector<UpdatedItem> want =
        WindowOracle(db, now - server.window(), now);
    ASSERT_EQ(report.entries.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(report.entries[i].id, want[i].id) << "entry " << i;
      EXPECT_EQ(report.entries[i].updated_at, want[i].updated_at)
          << "entry " << i;
    }
  }
}

TEST(TsServerTest, JournalHorizonIsWindow) {
  Database db(100, 1);
  TsServerStrategy server(&db, kL, kK);
  EXPECT_DOUBLE_EQ(server.JournalHorizonSeconds(), 30.0);
}

TEST(TsClientTest, FirstReportClearsCache) {
  ClientCache cache;
  cache.Put(1, 11, 0.0);
  TsClientManager client(kK);
  EXPECT_FALSE(client.HasValidBaseline());
  TsReport report;
  report.interval = 1;
  report.timestamp = 10.0;
  EXPECT_EQ(client.OnReport(report, &cache), 1u);
  EXPECT_TRUE(cache.empty());
  EXPECT_TRUE(client.HasValidBaseline());
}

TEST(TsClientTest, InvalidatesOnlyNewerUpdates) {
  ClientCache cache;
  TsClientManager client(kK);
  TsReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);

  // Fetched uplink at t=12 and t=14.
  client.OnUplinkFetch(1, 100, 12.0, &cache);
  client.OnUplinkFetch(2, 200, 14.0, &cache);

  TsReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  r2.entries = {{1, 13.0},   // newer than the copy from 12.0 -> purge
                {2, 13.5}};  // older than the copy from 14.0 -> keep
  EXPECT_EQ(client.OnReport(r2, &cache), 1u);
  EXPECT_FALSE(cache.Contains(1));
  ASSERT_TRUE(cache.Contains(2));
  // Surviving entries are revalidated through T_i.
  EXPECT_DOUBLE_EQ(cache.Peek(2)->timestamp, 20.0);
}

TEST(TsClientTest, UnmentionedItemsRevalidate) {
  ClientCache cache;
  TsClientManager client(kK);
  TsReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  client.OnUplinkFetch(5, 50, 11.0, &cache);

  TsReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  EXPECT_EQ(client.OnReport(r2, &cache), 0u);
  EXPECT_DOUBLE_EQ(cache.Peek(5)->timestamp, 20.0);
}

TEST(TsClientTest, SurvivesNapsUpToWindow) {
  ClientCache cache;
  TsClientManager client(kK);
  TsReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  client.OnUplinkFetch(7, 70, 10.5, &cache);

  // Sleeps through intervals 2-3; hears report 4: gap = 3 = k -> keep.
  TsReport r4;
  r4.interval = 4;
  r4.timestamp = 40.0;
  EXPECT_EQ(client.OnReport(r4, &cache), 0u);
  EXPECT_TRUE(cache.Contains(7));
  EXPECT_EQ(client.last_interval_heard(), 4u);
}

TEST(TsClientTest, DropsEverythingBeyondWindow) {
  ClientCache cache;
  TsClientManager client(kK);
  TsReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  client.OnUplinkFetch(7, 70, 10.5, &cache);
  client.OnUplinkFetch(8, 80, 10.6, &cache);

  // Gap of k+1 = 4 intervals: T_i - T_l > w -> drop the whole cache.
  TsReport r5;
  r5.interval = 5;
  r5.timestamp = 50.0;
  EXPECT_EQ(client.OnReport(r5, &cache), 2u);
  EXPECT_TRUE(cache.empty());
}

TEST(TsClientTest, RecoverableAfterDrop) {
  ClientCache cache;
  TsClientManager client(kK);
  TsReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  TsReport r9;
  r9.interval = 9;
  r9.timestamp = 90.0;
  client.OnReport(r9, &cache);  // long nap: cache dropped (was empty)
  client.OnUplinkFetch(3, 30, 91.0, &cache);
  TsReport r10;
  r10.interval = 10;
  r10.timestamp = 100.0;
  EXPECT_EQ(client.OnReport(r10, &cache), 0u);
  EXPECT_TRUE(cache.Contains(3));
}

TEST(TsClientTest, EqualTimestampIsNotInvalidation) {
  // A copy fetched at exactly the update time already reflects the update.
  ClientCache cache;
  TsClientManager client(kK);
  TsReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  client.OnUplinkFetch(1, 100, 12.0, &cache);
  TsReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  r2.entries = {{1, 12.0}};
  EXPECT_EQ(client.OnReport(r2, &cache), 0u);
  EXPECT_TRUE(cache.Contains(1));
}

// ---------------------------------------------------------------------------
// Shared report index.

TEST(TsReportIndexTest, IdsOfThePreviousReportAreCleared) {
  TsReportIndex index;
  TsReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  r1.entries = {{5, 9.0}, {40, 9.5}};
  index.Bind(r1);
  EXPECT_EQ(index.At(5), 9.0);
  EXPECT_EQ(index.At(40), 9.5);
  EXPECT_EQ(index.At(6), TsReportIndex::kNotMentioned);

  TsReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  r2.entries = {{7, 19.0}};
  index.Bind(r2);
  EXPECT_EQ(index.At(5), TsReportIndex::kNotMentioned);
  EXPECT_EQ(index.At(40), TsReportIndex::kNotMentioned);
  EXPECT_EQ(index.At(7), 19.0);
  EXPECT_EQ(index.At(1000), TsReportIndex::kNotMentioned);  // beyond table
}

// Ids 100..139: enough entries that a small cache takes the cache-driven
// (index) branch of TsClientManager::OnReport.
std::vector<TsReportEntry> Filler(SimTime updated_at) {
  std::vector<TsReportEntry> entries;
  for (ItemId id = 100; id < 140; ++id) entries.push_back({id, updated_at});
  return entries;
}

TEST(TsClientTest, SharedIndexForgetsIdsTheNextReportDropped) {
  // Unit a hears report 2, which lists item 5, and binds the shared index to
  // it. Unit b missed report 2 and holds a copy of item 5 older than that
  // entry. Report 3 no longer lists item 5, so b must keep its copy: the
  // index must not remember report 2's entry.
  TsReportIndex index;
  TsClientManager a(kK, &index);
  TsClientManager b(kK, &index);
  ClientCache cache_a;
  ClientCache cache_b;
  TsReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  a.OnReport(r1, &cache_a);
  b.OnReport(r1, &cache_b);
  cache_a.Put(5, 50, 11.0);
  cache_b.Put(5, 50, 11.0);

  TsReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  r2.entries = Filler(19.0);
  r2.entries.insert(r2.entries.begin(), TsReportEntry{5, 15.0});
  ASSERT_TRUE(CacheDrivenScanPays(r2.entries.size(), cache_a.size()));
  EXPECT_EQ(a.OnReport(r2, &cache_a), 1u);

  TsReport r3;
  r3.interval = 3;
  r3.timestamp = 30.0;
  r3.entries = Filler(29.0);
  ASSERT_TRUE(CacheDrivenScanPays(r3.entries.size(), cache_b.size()));
  EXPECT_EQ(b.OnReport(r3, &cache_b), 0u);
  EXPECT_TRUE(cache_b.Contains(5));
}

// The §3.1 client algorithm as first written: one binary search of the
// id-sorted report per cached item.
struct ReferenceTsClient {
  uint64_t window_intervals;
  bool heard_any = false;
  uint64_t last_interval = 0;

  uint64_t OnReport(const TsReport& ts, ClientCache* cache) {
    uint64_t invalidated = 0;
    if (!heard_any || ts.interval > last_interval + window_intervals) {
      invalidated = cache->size();
      cache->Clear();
    } else {
      for (ItemId id : cache->Items()) {
        auto it = std::lower_bound(
            ts.entries.begin(), ts.entries.end(), id,
            [](const TsReportEntry& e, ItemId v) { return e.id < v; });
        if (it != ts.entries.end() && it->id == id &&
            cache->Peek(id)->timestamp < it->updated_at) {
          cache->Erase(id);
          ++invalidated;
        }
      }
      cache->ValidateAllThrough(ts.timestamp);
    }
    heard_any = true;
    last_interval = ts.interval;
    return invalidated;
  }
};

// The adaptive-TS client rule (core/adaptive.h) over a binary search: a
// mentioned item survives iff its copy is not older than the entry; an
// unmentioned one iff its copy is younger than its announced window.
struct ReferenceAdaptiveClient {
  SimTime latency;
  uint64_t cold_window;

  uint64_t OnReport(const AdaptiveTsReport& r, ClientCache* cache) const {
    std::vector<ItemId> victims;
    for (ItemId id : cache->Items()) {
      const SimTime stamp = cache->Peek(id)->timestamp;
      auto it = std::lower_bound(
          r.entries.begin(), r.entries.end(), id,
          [](const TsReportEntry& e, ItemId v) { return e.id < v; });
      if (it != r.entries.end() && it->id == id) {
        if (stamp < it->updated_at) victims.push_back(id);
        continue;
      }
      uint64_t window = cold_window;
      for (const WindowChangeEntry& ch : r.window_changes) {
        if (ch.id == id) window = ch.window_intervals;
      }
      if (stamp < r.timestamp - latency * static_cast<double>(window)) {
        victims.push_back(id);
      }
    }
    for (ItemId id : victims) cache->Erase(id);
    cache->ValidateAllThrough(r.timestamp);
    return victims.size();
  }
};

using CacheSnapshot = std::vector<std::tuple<ItemId, uint64_t, SimTime>>;

CacheSnapshot Snapshot(const ClientCache& cache) {
  CacheSnapshot out;
  cache.ForEachItem([&](ItemId id, const CacheEntry& e) {
    out.emplace_back(id, e.value, e.timestamp);
  });
  std::sort(out.begin(), out.end());
  return out;
}

// One simulated unit: the manager under test and the reference, each with
// its own copy of the same cache.
struct DiffUnit {
  std::unique_ptr<ClientCacheManager> manager;
  ClientCache cache;
  ClientCache ref_cache;
  std::vector<ItemId> hotspot;
};

// Runs TS and adaptive-TS managers that share one index (a few TS managers
// keep a private one) against the references for `rounds` reports. Both
// report objects are mutated in place every interval; a quarter of the
// intervals keep the previous entries and move only (interval, timestamp),
// the BM_TsOnReportWatermark pattern.
void RunSharedIndexDifferential(uint64_t seed, double sleep_p) {
  constexpr uint64_t kN = 500;
  constexpr int kUnitsPerKind = 24;
  constexpr int kRounds = 60;
  const double w = kL * static_cast<double>(kK);
  Rng rng(seed);
  TsReportIndex index;
  const AdaptiveTsOptions opts;  // cold window 0 for unannounced items

  std::vector<DiffUnit> ts_units(kUnitsPerKind);
  std::vector<ReferenceTsClient> ts_refs(kUnitsPerKind,
                                         ReferenceTsClient{kK});
  std::vector<DiffUnit> ats_units(kUnitsPerKind);
  const ReferenceAdaptiveClient ats_ref{kL, opts.cold_window};
  for (int u = 0; u < kUnitsPerKind; ++u) {
    // Hot spots of 2..40 items put report sizes on both sides of
    // CacheDrivenScanPays.
    const uint64_t size = 2 + rng.NextUint64(39);
    for (DiffUnit* unit : {&ts_units[u], &ats_units[u]}) {
      for (uint64_t j = 0; j < size; ++j) {
        unit->hotspot.push_back(static_cast<ItemId>(rng.NextUint64(kN)));
      }
    }
    ts_units[u].manager = std::make_unique<TsClientManager>(
        kK, u % 6 == 5 ? nullptr : &index);
    ats_units[u].manager =
        std::make_unique<AdaptiveTsClientManager>(kL, opts, &index);
  }

  Report ts_report{TsReport{}};
  Report ats_report{AdaptiveTsReport{}};
  TsReport& ts = std::get<TsReport>(ts_report);
  AdaptiveTsReport& ats = std::get<AdaptiveTsReport>(ats_report);
  ts.window = w;
  for (int round = 1; round <= kRounds; ++round) {
    const SimTime now = kL * static_cast<double>(round);
    ts.interval = static_cast<uint64_t>(round);
    ts.timestamp = now;
    if (round == 1 || rng.NextDouble() >= 0.25) {
      static constexpr double kDensity[] = {0.0, 0.004, 0.02, 0.08,
                                            0.3, 0.8};
      const double density = kDensity[rng.NextUint64(6)];
      ts.entries.clear();
      for (ItemId id = 0; id < kN; ++id) {
        if (rng.NextDouble() < density) {
          ts.entries.push_back({id, now - w * rng.NextDouble()});
        }
      }
      ats.window_changes.clear();
      for (ItemId id = 0; id < kN; ++id) {
        if (rng.NextDouble() < 0.05) {
          ats.window_changes.push_back(
              {id, static_cast<uint32_t>(rng.NextUint64(6))});
        }
      }
    }
    ats.interval = ts.interval;
    ats.timestamp = ts.timestamp;
    ats.entries = ts.entries;

    for (int u = 0; u < kUnitsPerKind; ++u) {
      for (bool adaptive : {false, true}) {
        DiffUnit& unit = adaptive ? ats_units[u] : ts_units[u];
        if (rng.NextDouble() < sleep_p) continue;
        const uint64_t got =
            unit.manager->OnReport(adaptive ? ats_report : ts_report,
                                   &unit.cache);
        const uint64_t want =
            adaptive ? ats_ref.OnReport(ats, &unit.ref_cache)
                     : ts_refs[u].OnReport(ts, &unit.ref_cache);
        ASSERT_EQ(got, want) << (adaptive ? "ATS" : "TS") << " unit " << u
                             << " round " << round;
        ASSERT_EQ(Snapshot(unit.cache), Snapshot(unit.ref_cache))
            << (adaptive ? "ATS" : "TS") << " unit " << u << " round "
            << round;
        // Misses on the hot spot are fetched uplink before the next report,
        // stamped somewhere in the coming interval.
        for (ItemId id : unit.hotspot) {
          if (unit.cache.Contains(id)) continue;
          const SimTime fetched = now + kL * rng.NextDouble();
          unit.cache.Put(id, static_cast<uint64_t>(round), fetched);
          unit.ref_cache.Put(id, static_cast<uint64_t>(round), fetched);
        }
      }
    }
  }
}

TEST(TsClientTest, SharedIndexMatchesBinarySearchReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    // Sleep probabilities from workaholic to naps well beyond w.
    const double sleep_p = static_cast<double>(seed % 4) * 0.25;
    SCOPED_TRACE(testing::Message() << "seed " << seed << " sleep_p "
                                    << sleep_p);
    RunSharedIndexDifferential(seed, sleep_p);
    if (HasFatalFailure()) return;
  }
}

TEST(TsClientAllocationTest, WarmClientsOnSharedIndexAllocateNothing) {
  // Steady state: every report lists exactly 90 ids cycling through
  // 100..399, so after warm-up the index table spans every id and its scratch
  // holds a full report; hot items are never updated, so nothing is
  // invalidated. Reports are built before the measured span; only OnReport
  // is counted, for the unit that decodes the broadcast and for the one
  // that finds it already bound.
  constexpr uint64_t kN = 400;
  Database db(kN, 3);
  TsServerStrategy server(&db, kL, kK);
  std::vector<Report> reports;
  for (uint64_t i = 1; i <= 40; ++i) {
    for (uint64_t j = 0; j < 30; ++j) {
      db.ApplyUpdate(static_cast<ItemId>(100 + (i * 30 + j) % 300),
                     kL * static_cast<double>(i) - 1.0);
    }
    server.BuildReportInto(kL * static_cast<double>(i), i,
                           &reports.emplace_back());
  }

  const std::vector<ItemId> hotspot{1, 2, 3, 4, 5, 6, 7, 8};
  TsReportIndex index;
  TsClientManager first(kK, &index);
  TsClientManager second(kK, &index);
  ClientCache cache_first;
  ClientCache cache_second;
  for (size_t r = 0; r < reports.size(); ++r) {
    const bool measured = r >= 12;
    const size_t before = g_new_calls.load();
    const uint64_t inv_first = first.OnReport(reports[r], &cache_first);
    const uint64_t inv_second = second.OnReport(reports[r], &cache_second);
    const size_t allocations = g_new_calls.load() - before;
    if (measured) {
      ASSERT_TRUE(CacheDrivenScanPays(
          std::get<TsReport>(reports[r]).entries.size(), hotspot.size()));
      ASSERT_EQ(inv_first + inv_second, 0u) << "report " << r;
      EXPECT_EQ(allocations, 0u) << "warm TS report " << r << " allocated";
    }
    for (ItemId id : hotspot) {
      if (!cache_first.Contains(id)) cache_first.Put(id, 0, 0.0);
      if (!cache_second.Contains(id)) cache_second.Put(id, 0, 0.0);
    }
  }
  EXPECT_EQ(cache_first.size(), hotspot.size());
}

}  // namespace
}  // namespace mobicache
