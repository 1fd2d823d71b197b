// Equivalence contract of the interval-lockstep cell engine
// (exp/megacell.h): for any shard count, every per-unit statistic, the
// aggregate CellResult, and the channel bit counters must be byte-identical
// to the 1-shard run. Doubles are compared with EXPECT_EQ on purpose — the
// contract is bitwise reproduction, not approximation. (The 1-shard run
// itself is pinned to the retired single-heap engine by
// golden_equivalence_test.)
//
// Also holds the numerical-stability contract of util/stats.h's Neumaier-
// compensated Welford accumulator: 10^7 adversarial samples (huge offset,
// tiny increments) against a long-double two-pass reference, and
// split-and-Merge consistency.

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/megacell.h"
#include "exp/sweep.h"
#include "util/stats.h"

namespace mobicache {
namespace {

CellConfig BaseConfig(StrategyKind kind) {
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
  EXPECT_EQ(a.answer_latency.mean(), b.answer_latency.mean());
  EXPECT_EQ(a.answer_latency.variance(), b.answer_latency.variance());
  EXPECT_EQ(a.answer_latency.min(), b.answer_latency.min());
  EXPECT_EQ(a.answer_latency.max(), b.answer_latency.max());
  EXPECT_EQ(a.answer_latency.sum(), b.answer_latency.sum());
}

void ExpectResultsEqual(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.queries_answered, b.queries_answered);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.avg_report_bits, b.avg_report_bits);
  EXPECT_EQ(a.mean_answer_latency, b.mean_answer_latency);
  EXPECT_EQ(a.reports_broadcast, b.reports_broadcast);
  EXPECT_EQ(a.reports_heard, b.reports_heard);
  EXPECT_EQ(a.reports_missed, b.reports_missed);
  EXPECT_EQ(a.quiet_report_intervals, b.quiet_report_intervals);
  EXPECT_EQ(a.measured_sleep_fraction, b.measured_sleep_fraction);
  EXPECT_EQ(a.items_invalidated, b.items_invalidated);
  EXPECT_EQ(a.listen_seconds_total, b.listen_seconds_total);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.effectiveness, b.effectiveness);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.channel.report_bits, b.channel.report_bits);
  EXPECT_EQ(a.channel.uplink_query_bits, b.channel.uplink_query_bits);
  EXPECT_EQ(a.channel.downlink_answer_bits, b.channel.downlink_answer_bits);
  EXPECT_EQ(a.channel.report_count, b.channel.report_count);
  EXPECT_EQ(a.channel.uplink_query_count, b.channel.uplink_query_count);
  EXPECT_EQ(a.channel.downlink_answer_count, b.channel.downlink_answer_count);
  EXPECT_EQ(a.channel.busy_seconds, b.channel.busy_seconds);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.quiet_skipped_intervals, b.quiet_skipped_intervals);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
}

class MegaCellEquivalenceTest : public ::testing::TestWithParam<StrategyKind> {
};

TEST_P(MegaCellEquivalenceTest, MatchesCellAtAnyShardCount) {
  const StrategyKind kind = GetParam();
  const CellConfig config = BaseConfig(kind);

  MegaCellConfig one;
  one.cell = config;
  MegaCell reference(one);
  ASSERT_TRUE(reference.Build().ok());
  ASSERT_TRUE(reference.Run(5, 60).ok());
  const CellResult reference_result = reference.result();

  // 8 shards exercises the pairwise pre-merge + loser-tree replay path
  // (taken when shards >= 4) at a width where the tree has real depth.
  for (uint32_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(std::string(StrategyName(kind)) + " shards=" +
                 std::to_string(shards));
    MegaCellConfig mc;
    mc.cell = config;
    mc.num_shards = shards;
    MegaCell mega(mc);
    ASSERT_TRUE(mega.Build().ok());
    ASSERT_TRUE(mega.Run(5, 60).ok());

    ExpectResultsEqual(mega.result(), reference_result);
    for (uint64_t i = 0; i < config.num_units; ++i) {
      SCOPED_TRACE("unit " + std::to_string(i));
      ExpectUnitStatsEqual(mega.UnitStats(i), reference.UnitStats(i));
    }
    EXPECT_EQ(mega.registry_control_messages(),
              reference.registry_control_messages());
    EXPECT_EQ(mega.registry_invalidations_sent(),
              reference.registry_invalidations_sent());
    EXPECT_EQ(mega.registry_invalidations_missed_asleep(),
              reference.registry_invalidations_missed_asleep());
    EXPECT_EQ(mega.async_messages_broadcast(),
              reference.async_messages_broadcast());
    EXPECT_EQ(mega.async_deliveries(), reference.async_deliveries());

    // The shard partition is exhaustive and the per-shard accounting covers
    // every unit exactly once.
    ASSERT_EQ(mega.shard_stats().size(), shards);
    uint64_t covered = 0;
    for (const MegaCellShardStats& ss : mega.shard_stats()) {
      covered += ss.num_units;
    }
    EXPECT_EQ(covered, config.num_units);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MegaCellEquivalenceTest,
    ::testing::Values(StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kSig,
                      StrategyKind::kQuasiAt, StrategyKind::kAdaptiveTs,
                      StrategyKind::kStateful, StrategyKind::kIdeal,
                      StrategyKind::kAsync),
    [](const ::testing::TestParamInfo<StrategyKind>& param_info) {
      return std::string(StrategyName(param_info.param));
    });

TEST(MegaCellTest, ShardedSweepCsvIsByteIdentical) {
  SweepOptions options;
  options.points = 3;
  options.warmup_intervals = 3;
  options.measure_intervals = 20;
  options.num_units = 4;
  options.hotspot_size = 5;
  options.seed = 42;
  options.threads = 1;
  const std::vector<StrategyKind> kinds{StrategyKind::kTs, StrategyKind::kAt};

  std::string csv[2];
  for (int shards : {1, 2}) {
    SweepOptions opt = options;
    opt.shards = shards;
    const StatusOr<SweepResult> result =
        RunScenarioSweep(PaperScenario::kScenario1, kinds, opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->cell_timings.size(), result->simulated_cells);
    std::ostringstream os;
    WriteSweepCsv(*result, os);
    csv[shards == 1 ? 0 : 1] = os.str();
  }
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(MegaCellTest, SweepRejectsInvalidShards) {
  SweepOptions options;
  options.shards = 0;
  const StatusOr<SweepResult> result = RunScenarioSweep(
      PaperScenario::kScenario1, {StrategyKind::kTs}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MegaCellTest, RejectsZeroShards) {
  MegaCellConfig mc;
  mc.cell = BaseConfig(StrategyKind::kTs);
  mc.num_shards = 0;
  MegaCell mega(mc);
  const Status st = mega.Build();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(MegaCellTest, RejectsMoreShardsThanUnits) {
  MegaCellConfig mc;
  mc.cell = BaseConfig(StrategyKind::kTs);
  mc.cell.num_units = 4;
  mc.num_shards = 5;
  MegaCell mega(mc);
  const Status st = mega.Build();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Numerical stability of the compensated Welford accumulator.

TEST(OnlineStatsStabilityTest, AdversarialOffsetMatchesLongDoubleReference) {
  // A classic catastrophic case for naive running sums: a huge common offset
  // with tiny per-sample wiggle. 10^7 samples of 10^9 + i * 1e-7.
  constexpr uint64_t kSamples = 10'000'000;
  constexpr double kOffset = 1e9;
  constexpr double kStep = 1e-7;

  OnlineStats stats;
  long double sum = 0.0L;
  for (uint64_t i = 0; i < kSamples; ++i) {
    const double x = kOffset + static_cast<double>(i) * kStep;
    stats.Add(x);
    sum += static_cast<long double>(x);
  }
  const long double ref_mean = sum / static_cast<long double>(kSamples);
  long double m2 = 0.0L;
  for (uint64_t i = 0; i < kSamples; ++i) {
    const long double x =
        static_cast<long double>(kOffset) +
        static_cast<long double>(static_cast<double>(i) * kStep);
    m2 += (x - ref_mean) * (x - ref_mean);
  }
  const long double ref_var = m2 / static_cast<long double>(kSamples - 1);

  EXPECT_EQ(stats.count(), kSamples);
  // The mean must be exact to ~1 ulp of the offset-dominated value.
  EXPECT_NEAR(stats.mean(), static_cast<double>(ref_mean),
              1e-6);
  // The true variance is ~(kSamples * kStep)^2 / 12 ≈ 8.3e-2; an
  // uncompensated accumulator loses it entirely (relative error ~1) at this
  // offset. Require 6 significant digits.
  ASSERT_GT(static_cast<double>(ref_var), 0.0);
  EXPECT_NEAR(stats.variance() / static_cast<double>(ref_var), 1.0, 1e-6);
  EXPECT_GE(stats.variance(), 0.0);
}

TEST(OnlineStatsStabilityTest, SplitAndMergeMatchesSequential) {
  constexpr uint64_t kSamples = 1'000'000;
  constexpr double kOffset = 1e9;
  OnlineStats sequential;
  OnlineStats left, right;
  for (uint64_t i = 0; i < kSamples; ++i) {
    const double x = kOffset + std::sin(static_cast<double>(i));
    sequential.Add(x);
    (i < kSamples / 2 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), sequential.count());
  EXPECT_NEAR(left.mean(), sequential.mean(), 1e-7);
  EXPECT_NEAR(left.variance() / sequential.variance(), 1.0, 1e-9);
  EXPECT_EQ(left.min(), sequential.min());
  EXPECT_EQ(left.max(), sequential.max());
}

}  // namespace
}  // namespace mobicache
