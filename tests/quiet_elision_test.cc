// Equivalence and allocation contracts for quiet-interval elision
// (server/server.cc): skipping report delivery and fan-out while every unit
// sleeps must be observationally invisible.
//
//  * Byte-identity: for randomized sleep mixes and the s = 0 / s = 1 edge
//    cells, every counter a run exposes — ServerStats, channel traffic,
//    per-unit statistics, derived Eq. 9/10 metrics — is identical with
//    elision on and off, across every report strategy (TS, AT, SIG,
//    nocache, grouped, hybrid, adaptive TS, quasi-copy AT).
//  * Invariant: quiet_skipped_intervals <= quiet_report_intervals, and the
//    skip counter actually moves where it should (all-sleepers cells) and
//    stays zero where it must (elision off).
//  * Shard cross-check: with elision on, shards {2, 4, 8} match the 1-shard
//    run, including which intervals were elided.
//  * Quiet stretches: cells whose units sleep through long runs of
//    consecutive intervals (per-interval draws at s >= 0.9, renewal sleep
//    with wakes anywhere inside an interval, a warm-up end inside a
//    stretch, an idle cell at shards {1, 2, 4}) match their elision-off
//    twin in every counter, sim_events included, and each twin proves it
//    elided something.
//  * Allocation-freedom: once warm, the broadcast path — arena report
//    reuse, delivery scheduling, awake-set fan-out, and elided delivery —
//    performs no heap allocation per interval: two runs that differ only in
//    measured intervals allocate exactly as often (a counting global
//    operator new). A warm SIG client applying a report that invalidates
//    nothing allocates nothing either.

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cache.h"
#include "core/sig_strategy.h"
#include "db/database.h"
#include "exp/megacell.h"
#include "mu/mobile_unit.h"

#include "counting_new.h"

namespace mobicache {
namespace {

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

// Everything except quiet_skipped_intervals — the one counter that is
// *supposed* to differ between an eliding and a non-eliding run.
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

// ---------------------------------------------------------------------------
// Elision on vs off: byte-identical results across strategies and sleep
// probabilities. Every quiet interval builds its report and skips only the
// delivery, whatever the strategy.

/// gtest prints a parameter as its raw bytes, and ctest names carry that
/// dump: the zero fields fill what would be padding, so every byte is set
/// and the names are the same in every build.
struct ElisionCase {
  ElisionCase(StrategyKind k, double sleep) : kind(k), s(sleep) {}
  StrategyKind kind;
  uint32_t zero = 0;
  double s;
};
static_assert(sizeof(ElisionCase) == 16, "no padding bytes");

class ElisionEquivalenceTest : public ::testing::TestWithParam<ElisionCase> {};

TEST_P(ElisionEquivalenceTest, OnAndOffRunsAreByteIdentical) {
  const ElisionCase param = GetParam();

  CellResult results[2];
  std::vector<MobileUnitStats> unit_stats[2];
  for (int on = 0; on < 2; ++on) {
    MegaCellConfig mc;
    mc.cell = BaseConfig(param.kind, param.s);
    mc.cell.quiet_elision = on == 1;
    MegaCell cell(mc);
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(4, 50).ok());
    results[on] = cell.result();
    for (uint64_t i = 0; i < mc.cell.num_units; ++i) {
      unit_stats[on].push_back(cell.UnitStats(i));
    }
  }

  ExpectResultsIdentical(results[1], results[0]);
  // An elided delivery still dispatches its consumption event.
  EXPECT_EQ(results[1].sim_events, results[0].sim_events);
  EXPECT_EQ(results[0].quiet_skipped_intervals, 0u) << "elision off";
  EXPECT_LE(results[1].quiet_skipped_intervals,
            results[1].quiet_report_intervals);
  ASSERT_EQ(unit_stats[0].size(), unit_stats[1].size());
  for (size_t i = 0; i < unit_stats[0].size(); ++i) {
    SCOPED_TRACE("unit " + std::to_string(i));
    ExpectUnitStatsEqual(unit_stats[1][i], unit_stats[0][i]);
  }

  // Every-unit-asleep cells must actually exercise elision: with
  // s = 1 each unit sleeps from its first decision on, so every measured
  // interval is quiet, and those no wake straddles are elided.
  if (param.s == 1.0) {
    EXPECT_EQ(results[1].quiet_report_intervals, 50u);
    EXPECT_GT(results[1].quiet_skipped_intervals, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSleepMixes, ElisionEquivalenceTest,
    ::testing::Values(
        // The sleep range, edges included.
        ElisionCase{StrategyKind::kTs, 0.0},
        ElisionCase{StrategyKind::kTs, 0.6},
        ElisionCase{StrategyKind::kTs, 0.95},
        ElisionCase{StrategyKind::kTs, 1.0},
        ElisionCase{StrategyKind::kAt, 0.9},
        ElisionCase{StrategyKind::kAt, 1.0},
        ElisionCase{StrategyKind::kSig, 0.9},
        ElisionCase{StrategyKind::kSig, 1.0},
        ElisionCase{StrategyKind::kNoCache, 0.95},
        ElisionCase{StrategyKind::kGroupedAt, 0.9},
        ElisionCase{StrategyKind::kHybridSig, 0.9},
        // Strategies whose build carries controller state.
        ElisionCase{StrategyKind::kAdaptiveTs, 0.9},
        ElisionCase{StrategyKind::kQuasiAt, 0.9},
        ElisionCase{StrategyKind::kQuasiAt, 1.0}),
    [](const ::testing::TestParamInfo<ElisionCase>& param_info) {
      const auto& p = param_info.param;
      std::string name(StrategyName(p.kind));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      name += "_s";
      name += std::to_string(static_cast<int>(p.s * 100));
      return name;
    });

// Renewal (on/off period) sleep drives wake times that are not aligned to
// interval boundaries through the same index; the equivalence must hold
// there too.
TEST(ElisionEquivalenceTest, RenewalSleepRunsAreByteIdentical) {
  CellResult results[2];
  for (int on = 0; on < 2; ++on) {
    MegaCellConfig mc;
    mc.cell = BaseConfig(StrategyKind::kTs, 0.0);
    mc.cell.renewal_sleep = true;
    mc.cell.mean_awake_seconds = 15.0;
    mc.cell.mean_sleep_seconds = 120.0;
    mc.cell.quiet_elision = on == 1;
    MegaCell cell(mc);
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(4, 50).ok());
    results[on] = cell.result();
  }
  ExpectResultsIdentical(results[1], results[0]);
  EXPECT_EQ(results[1].sim_events, results[0].sim_events);
  EXPECT_LE(results[1].quiet_skipped_intervals,
            results[1].quiet_report_intervals);
}

// ---------------------------------------------------------------------------
// Shard counts: the aggregated per-shard wake indexes (stale by one interval
// at the broadcast point) must elide the same intervals at any shard count.

TEST(ElisionEquivalenceTest, MegaCellMatchesCellAcrossShardCounts) {
  for (StrategyKind kind : {StrategyKind::kTs, StrategyKind::kSig}) {
    MegaCellConfig one;
    one.cell = BaseConfig(kind, 0.9);
    one.cell.num_units = 16;
    MegaCell reference(one);
    ASSERT_TRUE(reference.Build().ok());
    ASSERT_TRUE(reference.Run(4, 50).ok());
    const CellResult reference_result = reference.result();
    EXPECT_GT(reference_result.quiet_skipped_intervals, 0u);

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
      EXPECT_EQ(m.quiet_skipped_intervals,
                reference_result.quiet_skipped_intervals);
      EXPECT_EQ(m.sim_events, reference_result.sim_events);
      for (uint64_t i = 0; i < mc.cell.num_units; ++i) {
        SCOPED_TRACE("unit " + std::to_string(i));
        ExpectUnitStatsEqual(mega.UnitStats(i), reference.UnitStats(i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Allocation-freedom of the warm broadcast path.

// Heap allocations of one whole run (Build and Run). Two runs that differ
// only in measured intervals must allocate equally often: every buffer is
// warm by the end of the warm-up, so extra intervals cost no allocation.
size_t RunAllocations(const CellConfig& config, uint64_t measure,
                      CellResult* result) {
  const size_t before = g_new_calls.load();
  MegaCellConfig mc;
  mc.cell = config;
  MegaCell cell(mc);
  EXPECT_TRUE(cell.Build().ok());
  EXPECT_TRUE(cell.Run(60, measure).ok());
  *result = cell.result();
  return g_new_calls.load() - before;
}

TEST(BroadcastAllocationTest, MaterializedSteadyStateAllocatesNothing) {
  // All units awake (s = 0) but with zero query rate: every interval builds
  // a real report into the arena and fans it out to the full awake set; no
  // uplink traffic muddies the count.
  CellConfig config = BaseConfig(StrategyKind::kTs, 0.0);
  config.model.lambda = 0.0;
  config.num_units = 8;
  CellResult short_run, long_run;
  const size_t short_allocs = RunAllocations(config, 50, &short_run);
  const size_t long_allocs = RunAllocations(config, 100, &long_run);
  EXPECT_EQ(long_allocs, short_allocs)
      << "warm materialized broadcast path allocated";
  EXPECT_EQ(long_run.reports_broadcast, 100u);
  EXPECT_EQ(long_run.quiet_report_intervals, 0u);
}

TEST(BroadcastAllocationTest, ElidedSteadyStateAllocatesNothing) {
  // Everyone asleep: after warm-up every interval builds into its arena
  // slot and takes the elided-delivery + skip path (modulo the bounded
  // fast-forward wake ticks, which are also allocation-free).
  CellConfig config = BaseConfig(StrategyKind::kTs, 1.0);
  config.model.lambda = 0.0;
  config.num_units = 8;
  CellResult short_run, long_run;
  const size_t short_allocs = RunAllocations(config, 50, &short_run);
  const size_t long_allocs = RunAllocations(config, 100, &long_run);
  EXPECT_EQ(long_allocs, short_allocs)
      << "warm elided broadcast path allocated";
  EXPECT_GT(long_run.quiet_skipped_intervals, 0u);
}

TEST(SigClientAllocationTest, WarmReportWithoutInvalidationsAllocatesNothing) {
  // A warm SIG client hearing every report: the broadcast interns into a
  // recycled pool slot, its mismatch bitmap is rebuilt in place, and the
  // cached-id scratch keeps its capacity, so a report that invalidates
  // nothing makes no heap allocation, whether the broadcast changed (one
  // update outside the client's interest) or not. Reports are built before
  // the measured span; only OnReport is counted.
  constexpr uint64_t kN = 400;
  constexpr double kL = 10.0;
  SignatureParams params;
  params.f = 10;
  params.g = 16;
  params.m = PaperRequiredSignatures(kN, params.f, 0.05);
  Database db(kN, 3);
  SignatureFamily family(kN, params, 17);
  SigServerStrategy server(&db, &family, kL);
  std::vector<Report> reports;
  for (uint64_t i = 1; i <= 40; ++i) {
    if (i % 3 != 0) {
      db.ApplyUpdate(static_cast<ItemId>(100 + i),
                     kL * static_cast<double>(i) - 1.0);
    }
    server.BuildReportInto(kL * static_cast<double>(i), i,
                           &reports.emplace_back());
  }

  const std::vector<ItemId> interest{1, 2, 3, 4, 5, 6, 7, 8};
  SigClientManager client(&family, interest);
  ClientCache cache;
  for (ItemId id : interest) cache.Put(id, 0, 0.0);
  EXPECT_EQ(client.OnReport(reports[0], &cache), interest.size());
  for (ItemId id : interest) cache.Put(id, 0, kL);
  for (size_t r = 1; r < 4; ++r) {
    ASSERT_EQ(client.OnReport(reports[r], &cache), 0u);
  }

  for (size_t r = 4; r < reports.size(); ++r) {
    const size_t before = g_new_calls.load();
    const uint64_t invalidated = client.OnReport(reports[r], &cache);
    const size_t allocations = g_new_calls.load() - before;
    ASSERT_EQ(invalidated, 0u) << "report " << r;
    EXPECT_EQ(allocations, 0u) << "warm SIG report " << r << " allocated";
  }
  EXPECT_EQ(cache.size(), interest.size());
}

// ---------------------------------------------------------------------------
// Quiet stretches: runs of consecutive elided intervals (the TimeSkip*
// suites). A smaller, differently seeded cell than BaseConfig's, so whole
// stretches go unheard.

CellConfig StretchConfig(StrategyKind kind, double s) {
  CellConfig config = BaseConfig(kind, s);
  config.num_units = 6;
  config.seed = 20260809;
  return config;
}

void ExpectResultsIdenticalWithEvents(const CellResult& a,
                                      const CellResult& b) {
  ExpectResultsIdentical(a, b);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

/// gtest prints a parameter as its raw bytes, and ctest names carry that
/// dump: the zero fields fill what would be padding, so every byte is set
/// and the names are the same in every build.
struct SkipCase {
  SkipCase(StrategyKind k, double sleep, bool renew)
      : kind(k), s(sleep), renewal(renew) {}
  StrategyKind kind;
  uint32_t zero = 0;
  double s;
  bool renewal;  // long on/off sleep periods instead of per-interval draws
  uint8_t zero_tail[7] = {};
};
static_assert(sizeof(SkipCase) == 24, "no padding bytes");

class TimeSkipEquivalenceTest : public ::testing::TestWithParam<SkipCase> {};

TEST_P(TimeSkipEquivalenceTest, OnAndOffRunsMatchIncludingEventCounts) {
  const SkipCase param = GetParam();

  CellResult results[2];
  std::vector<MobileUnitStats> unit_stats[2];
  for (int on = 0; on < 2; ++on) {
    MegaCellConfig mc;
    mc.cell = StretchConfig(param.kind, param.s);
    if (param.renewal) {
      mc.cell.renewal_sleep = true;
      mc.cell.mean_awake_seconds = 12.0;
      mc.cell.mean_sleep_seconds = 400.0;  // ~40 intervals: deep stretches
    }
    mc.cell.quiet_elision = on == 1;
    MegaCell cell(mc);
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(4, 80).ok());
    results[on] = cell.result();
    for (uint64_t i = 0; i < mc.cell.num_units; ++i) {
      unit_stats[on].push_back(cell.UnitStats(i));
    }
  }

  ExpectResultsIdenticalWithEvents(results[1], results[0]);
  EXPECT_EQ(results[0].quiet_skipped_intervals, 0u) << "elided with it off";
  ASSERT_EQ(unit_stats[0].size(), unit_stats[1].size());
  for (size_t i = 0; i < unit_stats[0].size(); ++i) {
    SCOPED_TRACE("unit " + std::to_string(i));
    ExpectUnitStatsEqual(unit_stats[1][i], unit_stats[0][i]);
  }

  // Every sleeping regime must actually elide — an equivalence test that
  // never engages the machinery proves nothing — and a cell without
  // sleepers never may.
  if (param.s > 0.0 || param.renewal) {
    EXPECT_GT(results[1].quiet_skipped_intervals, 0u) << "nothing elided";
  } else {
    EXPECT_EQ(results[1].quiet_skipped_intervals, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SleepRegimes, TimeSkipEquivalenceTest,
    ::testing::Values(
        // Per-interval sleep draws: wakes land on interval boundaries, so
        // stretches are short and transmissions a wake straddles common.
        SkipCase{StrategyKind::kTs, 0.9, false},
        SkipCase{StrategyKind::kTs, 1.0, false},
        SkipCase{StrategyKind::kAt, 1.0, false},
        SkipCase{StrategyKind::kSig, 1.0, false},
        SkipCase{StrategyKind::kNoCache, 1.0, false},
        SkipCase{StrategyKind::kHybridSig, 0.95, false},
        // No sleepers at all: elision must stay disengaged and harmless.
        SkipCase{StrategyKind::kTs, 0.0, false},
        // Renewal sleep: wake instants fall anywhere inside an interval, so
        // a wake mid-transmission forces a delivery inside a stretch.
        SkipCase{StrategyKind::kTs, 0.0, true},
        SkipCase{StrategyKind::kSig, 0.0, true},
        SkipCase{StrategyKind::kNoCache, 0.0, true}),
    [](const ::testing::TestParamInfo<SkipCase>& param_info) {
      const auto& p = param_info.param;
      std::string name(StrategyName(p.kind));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      name += "_s" + std::to_string(static_cast<int>(p.s * 100));
      if (p.renewal) name += "_renewal";
      return name;
    });

// The warm-up end is a stats reset inside the run: an elided interval
// whose consumption falls before it must be binned into the warm-up, one
// after it into the measurement, exactly as a delivered one would. Pin it
// with a warm-up end placed mid-sleep.
TEST(TimeSkipHorizonTest, PhaseBoundaryInsideAQuietStretchStaysExact) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    CellResult results[2];
    for (int on = 0; on < 2; ++on) {
      MegaCellConfig mc;
      mc.cell = StretchConfig(StrategyKind::kTs, 0.0);
      mc.cell.renewal_sleep = true;
      mc.cell.mean_awake_seconds = 8.0;
      mc.cell.mean_sleep_seconds = 600.0;
      mc.cell.quiet_elision = on == 1;
      mc.num_shards = shards;
      MegaCell cell(mc);
      ASSERT_TRUE(cell.Build().ok());
      // Long warmup: with ~60-interval sleep stretches the boundary at
      // interval 20 almost surely lands mid-stretch.
      ASSERT_TRUE(cell.Run(20, 60).ok());
      results[on] = cell.result();
    }
    ExpectResultsIdenticalWithEvents(results[1], results[0]);
    EXPECT_GT(results[1].quiet_skipped_intervals, 0u) << "nothing elided";
  }
}

// An idle cell — every unit asleep for the whole run — must elide at any
// shard count: the per-shard wake indexes aggregate into one horizon.
TEST(TimeSkipShardTest, IdleCellSkipsAtAnyShardCount) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    CellResult results[2];
    for (int on = 0; on < 2; ++on) {
      MegaCellConfig mc;
      mc.cell = StretchConfig(StrategyKind::kTs, 1.0);
      mc.cell.quiet_elision = on == 1;
      mc.num_shards = shards;
      MegaCell cell(mc);
      ASSERT_TRUE(cell.Build().ok());
      ASSERT_TRUE(cell.Run(4, 80).ok());
      results[on] = cell.result();
    }
    ExpectResultsIdenticalWithEvents(results[1], results[0]);
    EXPECT_EQ(results[1].quiet_report_intervals, 80u);
    EXPECT_EQ(results[0].quiet_skipped_intervals, 0u);
    EXPECT_GT(results[1].quiet_skipped_intervals, 0u) << "nothing elided";
  }
}

}  // namespace
}  // namespace mobicache
