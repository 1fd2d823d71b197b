#include <sstream>

#include <gtest/gtest.h>

#include "exp/megacell.h"
#include "exp/sweep.h"

namespace mobicache {
namespace {

CellConfig SmallConfig(StrategyKind kind) {
  CellConfig config;
  config.model.n = 200;
  config.model.lambda = 0.1;
  config.model.mu = 1e-3;
  config.model.L = 10.0;
  config.model.s = 0.3;
  config.model.k = 5;
  config.model.f = 5;
  config.strategy = kind;
  config.num_units = 5;
  config.hotspot_size = 10;
  config.seed = 11;
  return config;
}

TEST(CellTest, RejectsInvalidConfigs) {
  {
    CellConfig c = SmallConfig(StrategyKind::kTs);
    c.model.n = 0;
    EXPECT_FALSE(MegaCell({c}).Build().ok());
  }
  {
    CellConfig c = SmallConfig(StrategyKind::kTs);
    c.hotspot_size = 0;
    EXPECT_FALSE(MegaCell({c}).Build().ok());
  }
  {
    CellConfig c = SmallConfig(StrategyKind::kTs);
    c.hotspot_size = 10000;  // > n
    EXPECT_FALSE(MegaCell({c}).Build().ok());
  }
  {
    CellConfig c = SmallConfig(StrategyKind::kTs);
    c.num_units = 0;
    EXPECT_FALSE(MegaCell({c}).Build().ok());
  }
  {
    CellConfig c = SmallConfig(StrategyKind::kTs);
    c.model.s = 1.5;
    EXPECT_FALSE(MegaCell({c}).Build().ok());
  }
  {
    CellConfig c = SmallConfig(StrategyKind::kSig);
    c.sig_k_threshold = -1.0;
    EXPECT_FALSE(MegaCell({c}).Build().ok());
  }
  {
    CellConfig c = SmallConfig(StrategyKind::kHybridSig);
    c.sig_gamma = -0.5;
    EXPECT_FALSE(MegaCell({c}).Build().ok());
  }
}

TEST(CellTest, LifecycleEnforced) {
  MegaCell cell({SmallConfig(StrategyKind::kAt)});
  EXPECT_FALSE(cell.Run(1, 1).ok());  // must Build first
  ASSERT_TRUE(cell.Build().ok());
  EXPECT_FALSE(cell.Build().ok());  // double build
  ASSERT_TRUE(cell.Run(5, 20).ok());
  EXPECT_FALSE(cell.Run(5, 20).ok());  // double run
}

TEST(CellTest, EveryStrategyRuns) {
  for (StrategyKind kind :
       {StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kSig,
        StrategyKind::kNoCache, StrategyKind::kAdaptiveTs,
        StrategyKind::kIdeal, StrategyKind::kStateful,
        StrategyKind::kQuasiAt}) {
    MegaCell cell({SmallConfig(kind)});
    ASSERT_TRUE(cell.Build().ok()) << StrategyName(kind);
    ASSERT_TRUE(cell.Run(10, 100).ok()) << StrategyName(kind);
    const CellResult r = cell.result();
    EXPECT_GT(r.queries_answered, 0u) << StrategyName(kind);
    EXPECT_GE(r.hit_ratio, 0.0);
    EXPECT_LE(r.hit_ratio, 1.0);
    EXPECT_EQ(r.hits + r.misses, r.queries_answered);
  }
}

TEST(CellTest, QuietReportIntervals) {
  // s = 0: every unit is awake for every delivery, so no interval is quiet.
  {
    CellConfig c = SmallConfig(StrategyKind::kTs);
    c.model.s = 0.0;
    MegaCell cell({c});
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(2, 50).ok());
    const CellResult r = cell.result();
    EXPECT_EQ(r.quiet_report_intervals, 0u);
    EXPECT_EQ(r.reports_missed, 0u);
  }
  // s = 1: nobody ever listens, so every measured delivery lands in a fully
  // sleeping cell.
  {
    CellConfig c = SmallConfig(StrategyKind::kTs);
    c.model.s = 1.0;
    MegaCell cell({c});
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(2, 50).ok());
    const CellResult r = cell.result();
    EXPECT_EQ(r.reports_heard, 0u);
    EXPECT_GT(r.quiet_report_intervals, 0u);
    EXPECT_LE(r.quiet_report_intervals, r.reports_broadcast);
  }
}

TEST(CellTest, DeterministicForFixedSeed) {
  auto run = [] {
    MegaCell cell({SmallConfig(StrategyKind::kTs)});
    EXPECT_TRUE(cell.Build().ok());
    EXPECT_TRUE(cell.Run(10, 100).ok());
    return cell.result();
  };
  const CellResult a = run();
  const CellResult b = run();
  EXPECT_EQ(a.queries_answered, b.queries_answered);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_DOUBLE_EQ(a.avg_report_bits, b.avg_report_bits);
  EXPECT_DOUBLE_EQ(a.effectiveness, b.effectiveness);
}

TEST(CellTest, SeedChangesResults) {
  CellConfig c1 = SmallConfig(StrategyKind::kTs);
  CellConfig c2 = SmallConfig(StrategyKind::kTs);
  c2.seed = 12345;
  MegaCell a({c1}), b({c2});
  ASSERT_TRUE(a.Build().ok() && b.Build().ok());
  ASSERT_TRUE(a.Run(10, 100).ok() && b.Run(10, 100).ok());
  EXPECT_NE(a.result().queries_answered, b.result().queries_answered);
}

TEST(CellTest, SleepFractionTracksS) {
  CellConfig c = SmallConfig(StrategyKind::kAt);
  c.model.s = 0.6;
  c.num_units = 20;
  MegaCell cell({c});
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(10, 200).ok());
  EXPECT_NEAR(cell.result().measured_sleep_fraction, 0.6, 0.05);
}

TEST(CellTest, NoCacheHasZeroHitsAndZeroReportBits) {
  MegaCell cell({SmallConfig(StrategyKind::kNoCache)});
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(10, 100).ok());
  const CellResult r = cell.result();
  EXPECT_EQ(r.hits, 0u);
  EXPECT_DOUBLE_EQ(r.avg_report_bits, 0.0);
  EXPECT_EQ(r.channel.report_bits, 0u);
  EXPECT_GT(r.channel.uplink_query_bits, 0u);
}

TEST(CellTest, IdealBeatsEveryRealStrategyOnHitRatio) {
  double ideal_h = 0.0, at_h = 0.0;
  {
    MegaCell cell({SmallConfig(StrategyKind::kIdeal)});
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(10, 200).ok());
    ideal_h = cell.result().hit_ratio;
  }
  {
    MegaCell cell({SmallConfig(StrategyKind::kAt)});
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(10, 200).ok());
    at_h = cell.result().hit_ratio;
  }
  EXPECT_GT(ideal_h, at_h);
}

TEST(CellTest, RenewalSleepModeRuns) {
  CellConfig c = SmallConfig(StrategyKind::kTs);
  c.renewal_sleep = true;
  c.mean_awake_seconds = 100.0;
  c.mean_sleep_seconds = 30.0;
  MegaCell cell({c});
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(10, 200).ok());
  const CellResult r = cell.result();
  EXPECT_GT(r.queries_answered, 0u);
  EXPECT_GT(r.measured_sleep_fraction, 0.0);
  EXPECT_LT(r.measured_sleep_fraction, 1.0);
}

TEST(CellTest, DeliveryJitterAddsListenTimeForCsma) {
  CellConfig base = SmallConfig(StrategyKind::kAt);
  base.model.s = 0.0;
  CellConfig jittered = base;
  jittered.delivery = DeliveryModelKind::kCsmaJitter;
  jittered.mean_jitter_seconds = 1.0;
  MegaCell a({base}), b({jittered});
  ASSERT_TRUE(a.Build().ok() && b.Build().ok());
  ASSERT_TRUE(a.Run(10, 100).ok() && b.Run(10, 100).ok());
  EXPECT_GT(b.result().listen_seconds_total, a.result().listen_seconds_total);
}

TEST(SweepTest, AnalyticOnlySweepCoversRange) {
  SweepOptions opts;
  opts.points = 5;
  opts.simulate = false;
  const auto result = RunScenarioSweep(
      PaperScenario::kScenario1,
      {StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kNoCache}, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->xs.size(), 5u);
  EXPECT_DOUBLE_EQ(result->xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(result->xs.back(), 1.0);
  EXPECT_EQ(result->series.size(), 3u);
  EXPECT_FALSE(result->series[0].measured[0].has_value());
}

TEST(SweepTest, RejectsDegenerateSweep) {
  SweepOptions opts;
  opts.points = 1;
  EXPECT_FALSE(
      RunScenarioSweep(PaperScenario::kScenario1, {StrategyKind::kAt}, opts)
          .ok());
}

TEST(SweepTest, SimulatedSweepProducesMeasurements) {
  SweepOptions opts;
  opts.points = 3;
  opts.simulate = true;
  opts.num_units = 4;
  opts.hotspot_size = 5;
  opts.warmup_intervals = 5;
  opts.measure_intervals = 30;
  // Use a small custom scenario through Scenario 1's shape (n=1000 is fine).
  const auto result = RunScenarioSweep(PaperScenario::kScenario1,
                                       {StrategyKind::kAt}, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->series[0].measured[0].has_value());
  EXPECT_GT(result->series[0].measured[0]->queries_answered, 0u);
  std::ostringstream os;
  PrintSweepTables(*result, os);
  EXPECT_NE(os.str().find("Effectiveness"), std::string::npos);
  EXPECT_NE(os.str().find("AT.sim"), std::string::npos);
}

}  // namespace
}  // namespace mobicache
