// Cell-wide next-interesting-time skip (Server::SkipToNextInterestingTime,
// server/server.cc): when an interval's delivery was elided and nothing —
// no unit wake, no pending event, no run-horizon edge — happens before the
// next broadcast tick, the server replays whole quiet intervals inline at
// their nominal virtual times instead of bouncing each one through the
// scheduler. The cell engine lets it run by coalescing a sleeping cell's
// lockstep windows up to the shards' next event. The contract is strict
// observational equivalence:
//
//  * every exposed counter, including sim_events (scheduler dispatches plus
//    batched updates plus skip compensation), matches an elision-off run
//    bit for bit, across sleep regimes that produce deep skips, straddled
//    intervals (a wake or foreign event mid-transmission), and no skips;
//  * the skip actually engages where the cell genuinely sleeps in long
//    stretches (skipped_dispatches > 0), at any shard count, and never
//    engages with elision off;
//  * PeriodicProcess::SkipTicks accounts skipped ticks bit-exactly: the
//    re-armed tick lands on the same double the chain of per-tick
//    reschedules would have produced, even for a non-representable period.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/megacell.h"
#include "mu/mobile_unit.h"
#include "sim/simulator.h"

namespace mobicache {
namespace {

CellConfig BaseConfig(StrategyKind kind, double s) {
  CellConfig config;
  config.model.n = 400;
  config.model.mu = 0.002;
  config.model.lambda = 0.05;
  config.model.s = s;
  config.model.L = 10.0;
  config.model.k = 8;
  config.strategy = kind;
  config.num_units = 6;
  config.hotspot_size = 25;
  config.seed = 20260809;
  return config;
}

void ExpectResultsIdenticalWithEvents(const CellResult& a,
                                      const CellResult& b) {
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
  EXPECT_EQ(a.items_invalidated, b.items_invalidated);
  EXPECT_EQ(a.listen_seconds_total, b.listen_seconds_total);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  // The one the skip could break: each fully replayed interval must count
  // exactly the broadcast tick and elided-consumption dispatch it replaced,
  // each straddled interval exactly its tick.
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.channel.report_bits, b.channel.report_bits);
  EXPECT_EQ(a.channel.uplink_query_bits, b.channel.uplink_query_bits);
  EXPECT_EQ(a.channel.downlink_answer_bits, b.channel.downlink_answer_bits);
  EXPECT_EQ(a.channel.report_count, b.channel.report_count);
  EXPECT_EQ(a.channel.busy_seconds, b.channel.busy_seconds);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.effectiveness, b.effectiveness);
}

struct SkipCase {
  StrategyKind kind;
  double s;
  bool renewal;  // long on/off sleep periods instead of per-interval draws
};

class TimeSkipEquivalenceTest : public ::testing::TestWithParam<SkipCase> {};

TEST_P(TimeSkipEquivalenceTest, OnAndOffRunsMatchIncludingEventCounts) {
  const SkipCase param = GetParam();

  CellResult results[2];
  uint64_t skipped[2] = {0, 0};
  std::vector<MobileUnitStats> unit_stats[2];
  for (int on = 0; on < 2; ++on) {
    MegaCellConfig mc;
    mc.cell = BaseConfig(param.kind, param.s);
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
    skipped[on] = cell.server()->skipped_dispatches();
    for (uint64_t i = 0; i < mc.cell.num_units; ++i) {
      unit_stats[on].push_back(cell.UnitStats(i));
    }
  }

  ExpectResultsIdenticalWithEvents(results[1], results[0]);
  EXPECT_EQ(skipped[0], 0u) << "skip engaged with elision off";
  ASSERT_EQ(unit_stats[0].size(), unit_stats[1].size());
  for (size_t i = 0; i < unit_stats[0].size(); ++i) {
    SCOPED_TRACE("unit " + std::to_string(i));
    EXPECT_EQ(unit_stats[1][i].hits, unit_stats[0][i].hits);
    EXPECT_EQ(unit_stats[1][i].misses, unit_stats[0][i].misses);
    EXPECT_EQ(unit_stats[1][i].reports_heard, unit_stats[0][i].reports_heard);
    EXPECT_EQ(unit_stats[1][i].reports_missed,
              unit_stats[0][i].reports_missed);
    EXPECT_EQ(unit_stats[1][i].items_invalidated,
              unit_stats[0][i].items_invalidated);
    EXPECT_EQ(unit_stats[1][i].listen_seconds,
              unit_stats[0][i].listen_seconds);
  }

  // Deep-sleep renewal cells must actually exercise the replay loop — an
  // equivalence test that never engages the machinery proves nothing.
  if (param.renewal) {
    EXPECT_GT(skipped[1], 0u) << "time skip never engaged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SleepRegimes, TimeSkipEquivalenceTest,
    ::testing::Values(
        // Per-interval sleep draws: wakes land on interval boundaries, so
        // skips are shallow and straddles common.
        SkipCase{StrategyKind::kTs, 0.9, false},
        SkipCase{StrategyKind::kTs, 1.0, false},
        SkipCase{StrategyKind::kAt, 1.0, false},
        SkipCase{StrategyKind::kSig, 1.0, false},
        SkipCase{StrategyKind::kNoCache, 1.0, false},
        SkipCase{StrategyKind::kHybridSig, 0.95, false},
        // No sleepers at all: the skip must stay disengaged and harmless.
        SkipCase{StrategyKind::kTs, 0.0, false},
        // Renewal sleep: wake instants fall anywhere inside an interval, so
        // the replay hits the materialize-straddle branch too.
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

// The run horizon is an interesting time: a replay reaching the end of a
// RunUntil phase must stop there so the warmup/measure boundary (stats
// reset) bins intervals exactly as the per-event path does. Covered by the
// equivalence runs above only if warmup straddles a quiet stretch; pin it
// with a warmup window placed mid-sleep.
TEST(TimeSkipHorizonTest, PhaseBoundaryInsideAQuietStretchStaysExact) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    CellResult results[2];
    uint64_t skipped = 0;
    for (int on = 0; on < 2; ++on) {
      MegaCellConfig mc;
      mc.cell = BaseConfig(StrategyKind::kTs, 0.0);
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
      if (on == 1) skipped = cell.server()->skipped_dispatches();
    }
    ExpectResultsIdenticalWithEvents(results[1], results[0]);
    EXPECT_GT(skipped, 0u) << "time skip never engaged";
  }
}

// An idle cell — every unit asleep for the whole run — must skip at any
// shard count: the per-shard wake indexes aggregate into one horizon, and
// the engine's quiet windows span whole sleep stretches.
TEST(TimeSkipShardTest, IdleCellSkipsAtAnyShardCount) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    CellResult results[2];
    uint64_t skipped[2] = {0, 0};
    for (int on = 0; on < 2; ++on) {
      MegaCellConfig mc;
      mc.cell = BaseConfig(StrategyKind::kTs, 1.0);
      mc.cell.quiet_elision = on == 1;
      mc.num_shards = shards;
      MegaCell cell(mc);
      ASSERT_TRUE(cell.Build().ok());
      ASSERT_TRUE(cell.Run(4, 80).ok());
      results[on] = cell.result();
      skipped[on] = cell.server()->skipped_dispatches();
    }
    ExpectResultsIdenticalWithEvents(results[1], results[0]);
    EXPECT_EQ(results[1].quiet_report_intervals, 80u);
    EXPECT_GT(results[1].quiet_skipped_intervals, 0u);
    EXPECT_EQ(skipped[0], 0u);
    EXPECT_GT(skipped[1], 0u) << "time skip never engaged";
  }
}

// ---------------------------------------------------------------------------
// PeriodicProcess::SkipTicks — bit-exact tick accounting.

TEST(SkipTicksTest, ReArmedTickMatchesPerTickRescheduleBitForBit) {
  // 0.1 is not representable in binary; repeated += accumulates differently
  // than multiplication, and the skip must reproduce the former exactly.
  constexpr double kPeriod = 0.1;
  constexpr uint64_t kTicks = 40;

  std::vector<double> fired_times;
  std::vector<uint64_t> fired_indexes;
  {
    Simulator sim;
    PeriodicProcess proc(&sim, /*start=*/kPeriod, kPeriod,
                         [&](uint64_t tick) {
                           fired_indexes.push_back(tick);
                           fired_times.push_back(sim.Now());
                         });
    ASSERT_TRUE(proc.Start().ok());
    sim.RunUntil(kPeriod * (kTicks + 0.5));
    proc.Stop();
  }
  ASSERT_EQ(fired_times.size(), kTicks);

  // Same schedule, but ticks [10, 25) are skipped in one hop.
  std::vector<double> skip_times;
  std::vector<uint64_t> skip_indexes;
  {
    Simulator sim;
    PeriodicProcess proc(&sim, /*start=*/kPeriod, kPeriod,
                         [&](uint64_t tick) {
                           skip_indexes.push_back(tick);
                           skip_times.push_back(sim.Now());
                         });
    ASSERT_TRUE(proc.Start().ok());
    sim.RunUntil(fired_times[9]);  // dispatch through tick index 9
    ASSERT_EQ(proc.ticks_fired(), 10u);
    proc.SuspendPending();
    proc.SkipTicks(15);
    EXPECT_EQ(proc.ticks_fired(), 25u);
    sim.RunUntil(kPeriod * (kTicks + 0.5));
    proc.Stop();
  }
  ASSERT_EQ(skip_times.size(), kTicks - 15);

  // Prefix [0, 10) identical, then the re-armed tick continues at index 25
  // on exactly the doubles the unskipped run produced.
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(skip_indexes[i], fired_indexes[i]);
    EXPECT_EQ(skip_times[i], fired_times[i]) << "tick " << i;
  }
  for (size_t i = 10; i < skip_times.size(); ++i) {
    EXPECT_EQ(skip_indexes[i], fired_indexes[i + 15]);
    EXPECT_EQ(skip_times[i], fired_times[i + 15]) << "tick " << i;
  }
}

TEST(SkipTicksTest, SuspendBlocksTheTickAndSkipAccountsIt) {
  Simulator sim;
  uint64_t fired = 0;
  PeriodicProcess proc(&sim, /*start=*/1.0, /*period=*/1.0,
                       [&](uint64_t) { ++fired; });
  ASSERT_TRUE(proc.Start().ok());
  sim.RunUntil(2.0);
  ASSERT_EQ(fired, 2u);
  ASSERT_EQ(proc.pending_time(), 3.0);
  proc.SuspendPending();
  sim.RunUntil(3.4);
  EXPECT_EQ(fired, 2u) << "suspended tick fired";
  // The tick at 3.0 was consumed out-of-band; account it and continue.
  proc.SkipTicks(1);
  EXPECT_EQ(proc.ticks_fired(), 3u);
  EXPECT_EQ(proc.pending_time(), 4.0);
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, 4u) << "re-armed schedule did not continue";
  EXPECT_EQ(proc.ticks_fired(), 5u);
}

TEST(SkipTicksTest, SkipZeroJustReArms) {
  Simulator sim;
  uint64_t fired = 0;
  PeriodicProcess proc(&sim, /*start=*/1.0, /*period=*/1.0,
                       [&](uint64_t) { ++fired; });
  ASSERT_TRUE(proc.Start().ok());
  sim.RunUntil(2.0);
  proc.SuspendPending();
  proc.SkipTicks(0);
  EXPECT_EQ(proc.pending_time(), 3.0);
  EXPECT_EQ(proc.ticks_fired(), 2u);
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, 5u);
}

}  // namespace
}  // namespace mobicache
