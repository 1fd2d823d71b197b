// Contracts of the batched interval update kernel (db/update_generator.cc
// batch mode + Database::ApplyUpdateBatch) and of the signature strategies'
// fold over it:
//
//  * RNG replay: the batched drain applies the exact (item, time) sequence
//    the per-event engine dispatches — same seed, same draws, bit-identical
//    timestamps — for the uniform, Zipf-weighted, and zero-rate profiles,
//    regardless of where the pump points fall.
//  * Dirty-set folds: SIG and hybrid cells — dirty-set retention by their
//    class — produce byte-identical results with quiet elision on and off
//    and with an answer observer's raw-journal floor.
//  * Engines: shard counts {2, 4, 8} match the 1-shard run with batching
//    on, including the applied-update count.
//  * Allocation-freedom: once the staging buffers exist, the drain loop
//    performs zero heap allocations, and a warm full cell (pump + dirty-set
//    marks + signature folds) none per extra interval.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/update_generator.h"
#include "exp/megacell.h"
#include "mu/mobile_unit.h"
#include "sim/simulator.h"

#include "counting_new.h"

namespace mobicache {
namespace {

// ---------------------------------------------------------------------------
// RNG replay: per-event vs batched drain.

struct AppliedUpdate {
  ItemId id;
  SimTime at;
};

constexpr uint64_t kReplayItems = 96;
constexpr uint64_t kReplaySeed = 20260809;
constexpr SimTime kReplayEnd = 400.0;

// Runs one generator to kReplayEnd in the given mode and returns the
// observed (item, time) application sequence. Batched runs drain through a
// deliberately irregular set of pump points (repeats, both inclusivities,
// cuts that land between updates) — the sequence must not depend on them.
std::vector<AppliedUpdate> ReplayUpdates(double uniform_mu,
                                         const std::vector<double>& rates,
                                         bool batched) {
  Simulator sim;
  Database db(kReplayItems, /*seed=*/7);
  std::vector<std::unique_ptr<UpdateGenerator>> holder;
  if (rates.empty()) {
    holder.push_back(std::make_unique<UpdateGenerator>(&sim, &db, uniform_mu,
                                                       kReplaySeed));
  } else {
    holder.push_back(
        std::make_unique<UpdateGenerator>(&sim, &db, rates, kReplaySeed));
  }
  UpdateGenerator& gen = *holder.back();
  std::vector<AppliedUpdate> applied;
  db.SetUpdateObserver([&applied](ItemId id, SimTime t) {
    applied.push_back(AppliedUpdate{id, t});
  });
  if (batched) gen.EnableBatchMode();
  EXPECT_TRUE(gen.Start().ok());
  if (batched) {
    for (SimTime cut : {13.7, 13.7, 40.0, 111.2, 111.2, 250.0}) {
      gen.GenerateIntervalUpdates(cut, /*inclusive=*/false);
      gen.GenerateIntervalUpdates(cut, /*inclusive=*/true);
    }
    // RunUntil dispatches events with time <= end, so the final drain is
    // inclusive at the same point.
    gen.GenerateIntervalUpdates(kReplayEnd, /*inclusive=*/true);
  } else {
    sim.RunUntil(kReplayEnd);
  }
  gen.Stop();
  db.SetUpdateObserver(nullptr);
  EXPECT_EQ(gen.updates_generated(), applied.size());
  EXPECT_EQ(db.total_updates(), applied.size());
  if (batched) {
    EXPECT_EQ(gen.batched_updates_applied(), applied.size());
  }
  return applied;
}

void ExpectSameReplay(double uniform_mu, const std::vector<double>& rates) {
  const std::vector<AppliedUpdate> per_event =
      ReplayUpdates(uniform_mu, rates, /*batched=*/false);
  const std::vector<AppliedUpdate> batched =
      ReplayUpdates(uniform_mu, rates, /*batched=*/true);
  ASSERT_EQ(per_event.size(), batched.size());
  for (size_t i = 0; i < per_event.size(); ++i) {
    ASSERT_EQ(per_event[i].id, batched[i].id) << "update " << i;
    // Bit-exact: the batched path accumulates the same doubles by the same
    // repeated addition ScheduleAfter performs.
    ASSERT_EQ(per_event[i].at, batched[i].at) << "update " << i;
  }
}

TEST(UpdateBatchReplayTest, UniformProfileMatchesPerEvent) {
  ExpectSameReplay(/*uniform_mu=*/0.05, {});
}

TEST(UpdateBatchReplayTest, ZipfProfileMatchesPerEvent) {
  ExpectSameReplay(0.0, ZipfUpdateRates(kReplayItems, /*mu_mean=*/0.05,
                                        /*theta=*/0.9));
}

TEST(UpdateBatchReplayTest, ZeroRateGeneratesNothingInEitherMode) {
  EXPECT_TRUE(ReplayUpdates(0.0, {}, /*batched=*/false).empty());
  EXPECT_TRUE(ReplayUpdates(0.0, {}, /*batched=*/true).empty());
}

TEST(UpdateBatchReplayTest, BothModesLeaveIdenticalDatabaseState) {
  Database dbs[2] = {Database(kReplayItems, 7), Database(kReplayItems, 7)};
  for (int batched = 0; batched < 2; ++batched) {
    Simulator sim;
    UpdateGenerator gen(&sim, &dbs[batched], 0.08, kReplaySeed);
    if (batched == 1) gen.EnableBatchMode();
    ASSERT_TRUE(gen.Start().ok());
    if (batched == 1) {
      gen.GenerateIntervalUpdates(kReplayEnd, /*inclusive=*/true);
    } else {
      sim.RunUntil(kReplayEnd);
    }
    gen.Stop();
  }
  for (ItemId id = 0; id < kReplayItems; ++id) {
    EXPECT_EQ(dbs[0].VersionOf(id), dbs[1].VersionOf(id)) << "item " << id;
    EXPECT_EQ(dbs[0].LastUpdateOf(id), dbs[1].LastUpdateOf(id))
        << "item " << id;
    EXPECT_EQ(dbs[0].ValueOf(id), dbs[1].ValueOf(id)) << "item " << id;
  }
  EXPECT_EQ(dbs[0].journal_size(), dbs[1].journal_size());
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

// The drain loop itself: once EnableBatchMode has sized the staging
// buffers, pumping any number of updates through a journal-less database
// allocates nothing.
TEST(UpdateBatchAllocationTest, DrainLoopAllocatesNothing) {
  Simulator sim;
  Database db(10000, /*seed=*/3);
  db.SetJournalEnabled(false);
  UpdateGenerator gen(&sim, &db, /*mu_per_item=*/0.01, /*seed=*/77);
  gen.EnableBatchMode();
  ASSERT_TRUE(gen.Start().ok());
  gen.GenerateIntervalUpdates(50.0, /*inclusive=*/false);  // warm

  const size_t before = g_new_calls.load();
  for (int i = 1; i <= 40; ++i) {
    gen.GenerateIntervalUpdates(50.0 + 10.0 * static_cast<double>(i),
                                /*inclusive=*/false);
  }
  EXPECT_EQ(g_new_calls.load() - before, 0u) << "batched drain allocated";
  EXPECT_GT(gen.batched_updates_applied(), 10000u);
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
    ASSERT_TRUE(cell.updates()->batch_mode());
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
