// Contracts of the update stream (db/update_generator.cc's lookahead drain
// + Database::ApplyUpdateBatch) and of the signature strategies' fold over
// it:
//
//  * RNG replay: the drain applies the exact (item, time) sequence of a
//    test-local spec stream — one (gap, item) draw pair per update from the
//    same seed, times accumulated by `t += gap` — bit for bit, for the
//    uniform, Zipf-weighted, and zero-rate profiles, regardless of where
//    the pump points fall.
//  * Dirty-set folds: SIG and hybrid cells — dirty-set retention by their
//    class — produce byte-identical results with quiet elision on and off
//    and with an answer observer's raw-journal floor.
//  * Engines: shard counts {2, 4, 8} match the 1-shard run, including the
//    applied-update count.
//  * Allocation-freedom: once the lookahead exists, the drain loop performs
//    zero heap allocations for either profile, and a warm full cell (pump +
//    dirty-set marks + signature folds) none per extra interval.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/update_generator.h"
#include "exp/megacell.h"
#include "mu/mobile_unit.h"
#include "sim/simulator.h"
#include "util/random.h"

#include "counting_new.h"

namespace mobicache {
namespace {

// ---------------------------------------------------------------------------
// RNG replay: the drain against the spec stream.

struct AppliedUpdate {
  ItemId id;
  SimTime at;
};

constexpr uint64_t kReplayItems = 96;
constexpr uint64_t kReplaySeed = 20260809;
constexpr SimTime kReplayEnd = 400.0;

// The update process as specified, one update at a time: draw the gap, then
// the item (uniform, or the first item whose cumulative rate reaches a
// uniform draw over the total), and apply it at the accumulated time.
// Applies every update with time <= kReplayEnd to `db`.
void SpecStream(double uniform_mu, const std::vector<double>& rates,
                Database* db) {
  std::vector<double> cdf;
  double total = uniform_mu * static_cast<double>(kReplayItems);
  if (!rates.empty()) {
    total = 0.0;
    for (double r : rates) cdf.push_back(total += r);
  }
  if (total <= 0.0) return;
  Rng rng(kReplaySeed);
  for (SimTime t = 0.0;;) {
    t += rng.Exponential(total);
    ItemId id = 0;
    if (cdf.empty()) {
      id = static_cast<ItemId>(rng.NextUint64(kReplayItems));
    } else {
      const double u = rng.NextDouble() * total;
      const auto it = std::lower_bound(cdf.begin(), cdf.end() - 1, u);
      id = static_cast<ItemId>(it - cdf.begin());
    }
    if (t > kReplayEnd) return;
    db->ApplyUpdate(id, t);
  }
}

std::unique_ptr<UpdateGenerator> MakeGenerator(
    Simulator* sim, Database* db, double uniform_mu,
    const std::vector<double>& rates) {
  if (rates.empty()) {
    return std::make_unique<UpdateGenerator>(sim, db, uniform_mu,
                                             kReplaySeed);
  }
  return std::make_unique<UpdateGenerator>(sim, db, rates, kReplaySeed);
}

// Drains one generator to kReplayEnd through a deliberately irregular set
// of pump points (repeats, both inclusivities, cuts that land between
// updates) — the sequence must not depend on them — into `db`.
void DrainWithIrregularPumps(double uniform_mu,
                             const std::vector<double>& rates, Database* db) {
  Simulator sim;
  std::unique_ptr<UpdateGenerator> gen =
      MakeGenerator(&sim, db, uniform_mu, rates);
  EXPECT_TRUE(gen->Start().ok());
  for (SimTime cut : {13.7, 13.7, 40.0, 111.2, 111.2, 250.0}) {
    gen->GenerateIntervalUpdates(cut, /*inclusive=*/false);
    gen->GenerateIntervalUpdates(cut, /*inclusive=*/true);
  }
  gen->GenerateIntervalUpdates(kReplayEnd, /*inclusive=*/true);
  gen->Stop();
  EXPECT_EQ(gen->updates_generated(), db->total_updates());
}

// Returns the observed (item, time) application sequence of the spec
// stream (`drained` false) or of the drain (`drained` true).
std::vector<AppliedUpdate> ReplayUpdates(double uniform_mu,
                                         const std::vector<double>& rates,
                                         bool drained) {
  Database db(kReplayItems, /*seed=*/7);
  std::vector<AppliedUpdate> applied;
  db.SetUpdateObserver([&applied](ItemId id, SimTime t) {
    applied.push_back(AppliedUpdate{id, t});
  });
  if (drained) {
    DrainWithIrregularPumps(uniform_mu, rates, &db);
  } else {
    SpecStream(uniform_mu, rates, &db);
  }
  db.SetUpdateObserver(nullptr);
  EXPECT_EQ(db.total_updates(), applied.size());
  return applied;
}

void ExpectSameReplay(double uniform_mu, const std::vector<double>& rates) {
  const std::vector<AppliedUpdate> spec =
      ReplayUpdates(uniform_mu, rates, /*drained=*/false);
  const std::vector<AppliedUpdate> drained =
      ReplayUpdates(uniform_mu, rates, /*drained=*/true);
  ASSERT_GT(spec.size(), 1000u);  // the stream crosses lookahead refills
  ASSERT_EQ(spec.size(), drained.size());
  for (size_t i = 0; i < spec.size(); ++i) {
    ASSERT_EQ(spec[i].id, drained[i].id) << "update " << i;
    // Bit-exact: the lookahead decodes the same bits and accumulates the
    // same doubles by the same repeated addition.
    ASSERT_EQ(spec[i].at, drained[i].at) << "update " << i;
  }
}

TEST(UpdateBatchReplayTest, UniformProfileMatchesSpecStream) {
  ExpectSameReplay(/*uniform_mu=*/0.05, {});
}

TEST(UpdateBatchReplayTest, ZipfProfileMatchesSpecStream) {
  ExpectSameReplay(0.0, ZipfUpdateRates(kReplayItems, /*mu_mean=*/0.05,
                                        /*theta=*/0.9));
}

TEST(UpdateBatchReplayTest, ZeroRateGeneratesNothingLikeSpecStream) {
  EXPECT_TRUE(ReplayUpdates(0.0, {}, /*drained=*/false).empty());
  EXPECT_TRUE(ReplayUpdates(0.0, {}, /*drained=*/true).empty());
}

TEST(UpdateBatchReplayTest, DrainLeavesSpecStreamDatabaseState) {
  const std::vector<double> zipf =
      ZipfUpdateRates(kReplayItems, /*mu_mean=*/0.08, /*theta=*/0.9);
  for (bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "zipf" : "uniform");
    const std::vector<double> rates = weighted ? zipf : std::vector<double>{};
    Database spec(kReplayItems, 7), drained(kReplayItems, 7);
    SpecStream(0.08, rates, &spec);
    DrainWithIrregularPumps(0.08, rates, &drained);
    ASSERT_GT(spec.total_updates(), 0u);
    EXPECT_EQ(spec.total_updates(), drained.total_updates());
    for (ItemId id = 0; id < kReplayItems; ++id) {
      EXPECT_EQ(spec.VersionOf(id), drained.VersionOf(id)) << "item " << id;
      EXPECT_EQ(spec.LastUpdateOf(id), drained.LastUpdateOf(id))
          << "item " << id;
      EXPECT_EQ(spec.ValueOf(id), drained.ValueOf(id)) << "item " << id;
    }
    EXPECT_EQ(spec.journal_size(), drained.journal_size());
  }
}

// ---------------------------------------------------------------------------
// Cell-level equivalence and engine cross-checks. Helper matchers mirror
// tests/quiet_elision_test.cc.

void ExpectUnitStatsEqual(const MobileUnitStats& a, const MobileUnitStats& b) {
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.queries_answered, b.queries_answered);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.reports_heard, b.reports_heard);
  EXPECT_EQ(a.reports_missed, b.reports_missed);
  EXPECT_EQ(a.items_invalidated, b.items_invalidated);
  EXPECT_EQ(a.listen_seconds, b.listen_seconds);
  EXPECT_EQ(a.answer_latency.count(), b.answer_latency.count());
  EXPECT_EQ(a.answer_latency.sum(), b.answer_latency.sum());
}

// Everything a run exposes except quiet_skipped_intervals and sim_events,
// which differ between quiet elision on and off by design.
void ExpectResultsIdentical(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.queries_answered, b.queries_answered);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.mean_answer_latency, b.mean_answer_latency);
  EXPECT_EQ(a.reports_broadcast, b.reports_broadcast);
  EXPECT_EQ(a.reports_heard, b.reports_heard);
  EXPECT_EQ(a.reports_missed, b.reports_missed);
  EXPECT_EQ(a.quiet_report_intervals, b.quiet_report_intervals);
  EXPECT_EQ(a.avg_report_bits, b.avg_report_bits);
  EXPECT_EQ(a.measured_sleep_fraction, b.measured_sleep_fraction);
  EXPECT_EQ(a.items_invalidated, b.items_invalidated);
  EXPECT_EQ(a.listen_seconds_total, b.listen_seconds_total);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  EXPECT_EQ(a.channel.report_bits, b.channel.report_bits);
  EXPECT_EQ(a.channel.uplink_query_bits, b.channel.uplink_query_bits);
  EXPECT_EQ(a.channel.downlink_answer_bits, b.channel.downlink_answer_bits);
  EXPECT_EQ(a.channel.report_count, b.channel.report_count);
  EXPECT_EQ(a.channel.uplink_query_count, b.channel.uplink_query_count);
  EXPECT_EQ(a.channel.downlink_answer_count, b.channel.downlink_answer_count);
  EXPECT_EQ(a.channel.busy_seconds, b.channel.busy_seconds);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.effectiveness, b.effectiveness);
}

CellConfig BaseConfig(StrategyKind kind, double s) {
  CellConfig config;
  config.model.n = 400;
  config.model.mu = 0.002;
  config.model.lambda = 0.05;
  config.model.s = s;
  config.model.L = 10.0;
  config.model.k = 8;
  config.strategy = kind;
  config.num_units = 12;
  config.hotspot_size = 25;
  config.seed = 4242;
  return config;
}

// SIG and hybrid declare kDirtySet retention: each fold window-queries the
// items changed since the previous fold, and the dirty set answers that
// whatever the quiet-elision setting. An answer observer's kFullWindow floor
// makes the same query scan the raw journal (its VersionAt audits need the
// history). All three configurations — dirty set with quiet elision off and
// on, raw journal — run byte-identically.
TEST(JournalElisionCellTest, SigRunsAreByteIdenticalWithElisionOnAndOff) {
  for (StrategyKind kind : {StrategyKind::kSig, StrategyKind::kHybridSig}) {
    for (double s : {0.9, 1.0}) {
      SCOPED_TRACE(std::string(StrategyName(kind)) + " s=" +
                   std::to_string(s));
      CellResult results[3];
      JournalRetention retention[3] = {};
      uint64_t journal_peak[3] = {0, 0, 0};
      for (int run = 0; run < 3; ++run) {
        MegaCellConfig mc;
        mc.cell = BaseConfig(kind, s);
        mc.cell.quiet_elision = run != 0;
        MegaCell cell(mc);
        ASSERT_TRUE(cell.Build().ok());
        if (run == 2) {
          for (MobileUnit* unit : cell.units()) {
            unit->SetAnswerObserver([](ItemId, uint64_t, SimTime, bool) {});
          }
        }
        ASSERT_TRUE(cell.Run(4, 50).ok());
        results[run] = cell.result();
        retention[run] = cell.db()->retention();
        journal_peak[run] = cell.db()->journal_bytes_peak();
      }
      ExpectResultsIdentical(results[1], results[0]);
      ExpectResultsIdentical(results[2], results[1]);
      EXPECT_EQ(results[2].quiet_skipped_intervals,
                results[1].quiet_skipped_intervals);
      EXPECT_EQ(retention[0], JournalRetention::kDirtySet);
      EXPECT_EQ(retention[1], JournalRetention::kDirtySet);
      EXPECT_EQ(retention[2], JournalRetention::kFullWindow);
      // The dirty set's footprint is its two n-bit sets, whatever the
      // updates.
      const uint64_t set_bytes = 2 * ((BaseConfig(kind, s).model.n + 7) / 8);
      EXPECT_EQ(journal_peak[0], set_bytes);
      EXPECT_EQ(journal_peak[1], set_bytes);
      EXPECT_GT(results[0].updates_applied, 0u);
      if (s == 1.0) {
        // Everyone asleep: every measured interval elides its broadcast.
        EXPECT_GT(results[1].quiet_skipped_intervals, 0u);
      }
    }
  }
}

TEST(UpdateBatchEngineTest, MegaCellMatchesCellAcrossShardCounts) {
  for (StrategyKind kind : {StrategyKind::kTs, StrategyKind::kSig}) {
    MegaCellConfig one;
    one.cell = BaseConfig(kind, 0.9);
    one.cell.num_units = 16;
    MegaCell reference(one);
    ASSERT_TRUE(reference.Build().ok());
    ASSERT_TRUE(reference.Run(4, 50).ok());
    const CellResult reference_result = reference.result();
    EXPECT_GT(reference_result.updates_applied, 0u);

    for (uint32_t shards : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(StrategyName(kind)) + " shards=" +
                   std::to_string(shards));
      MegaCellConfig mc = one;
      mc.num_shards = shards;
      MegaCell mega(mc);
      ASSERT_TRUE(mega.Build().ok());
      ASSERT_TRUE(mega.Run(4, 50).ok());

      const CellResult& m = mega.result();
      ExpectResultsIdentical(m, reference_result);
      EXPECT_EQ(m.sim_events, reference_result.sim_events);
      for (uint64_t i = 0; i < mc.cell.num_units; ++i) {
        SCOPED_TRACE("unit " + std::to_string(i));
        ExpectUnitStatsEqual(mega.UnitStats(i), reference.UnitStats(i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Allocation-freedom.

// The drain loop itself: once the constructor has sized the lookahead,
// pumping any number of updates through a journal-less database allocates
// nothing, for the uniform and the Zipf-weighted profile alike. The
// full-window row adds the raw log, pruned at every interval as the server
// prunes it: once warm, its appends land in retained capacity.
TEST(UpdateBatchAllocationTest, DrainLoopAllocatesNothing) {
  constexpr uint64_t kItems = 10000;
  constexpr double kL = 10.0;
  const std::vector<double> zipf =
      ZipfUpdateRates(kItems, /*mu_mean=*/0.01, /*theta=*/0.9);
  struct Row {
    const char* name;
    bool weighted;
    JournalRetention retention;
  };
  for (const Row& row :
       {Row{"uniform", false, JournalRetention::kNone},
        Row{"zipf", true, JournalRetention::kNone},
        Row{"uniform, full window", false, JournalRetention::kFullWindow}}) {
    SCOPED_TRACE(row.name);
    Simulator sim;
    Database db(kItems, /*seed=*/3);
    db.SetRetention(row.retention);
    UpdateGenerator gen =
        row.weighted ? UpdateGenerator(&sim, &db, zipf, /*seed=*/77)
                     : UpdateGenerator(&sim, &db, /*mu_per_item=*/0.01, 77);
    ASSERT_TRUE(gen.Start().ok());
    // One interval's drain, then the server's prune: the strategy's
    // horizon (L) plus two intervals of slack.
    auto step = [&](int interval) {
      const SimTime now = kL * static_cast<double>(interval);
      gen.GenerateIntervalUpdates(now, /*inclusive=*/false);
      db.PruneJournalBefore(now - 3.0 * kL);
    };
    for (int i = 1; i <= 10; ++i) step(i);  // warm

    const size_t before = g_new_calls.load();
    for (int i = 11; i <= 50; ++i) step(i);
    EXPECT_EQ(g_new_calls.load() - before, 0u) << "update drain allocated";
    EXPECT_GT(gen.updates_generated(), 10000u);
    if (row.retention == JournalRetention::kFullWindow) {
      EXPECT_GT(db.journal_size(), 0u);
    }
  }
}

// Full-cell steady state: with every unit asleep under SIG, the measured
// intervals cover elided broadcasts, batched pumps, dirty-set marks and the
// signature fold's window query — none of which may allocate once warm, so
// two runs that differ only in measured intervals allocate equally often.
TEST(UpdateBatchAllocationTest, WarmElidedCellSteadyStateAllocatesNothing) {
  auto run_allocs = [](uint64_t measure, size_t* allocs, CellResult* result,
                       JournalRetention* retention) {
    const size_t before = g_new_calls.load();
    MegaCellConfig mc;
    mc.cell = BaseConfig(StrategyKind::kSig, 1.0);
    mc.cell.model.lambda = 0.0;
    mc.cell.num_units = 8;
    MegaCell cell(mc);
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(60, measure).ok());
    *result = cell.result();
    *retention = cell.db()->retention();
    *allocs = g_new_calls.load() - before;
  };
  size_t short_allocs = 0, long_allocs = 0;
  CellResult short_run, long_run;
  JournalRetention short_retention{}, long_retention{};
  ASSERT_NO_FATAL_FAILURE(
      run_allocs(50, &short_allocs, &short_run, &short_retention));
  ASSERT_NO_FATAL_FAILURE(
      run_allocs(100, &long_allocs, &long_run, &long_retention));
  EXPECT_EQ(long_allocs, short_allocs)
      << "warm batched steady state allocated";
  EXPECT_GT(long_run.quiet_skipped_intervals, 0u);
  EXPECT_GT(long_run.updates_applied, short_run.updates_applied);
  EXPECT_EQ(short_retention, JournalRetention::kDirtySet);
  EXPECT_EQ(long_retention, JournalRetention::kDirtySet);
}

}  // namespace
}  // namespace mobicache
