// Determinism contract of the parallel sweep engine: the CSV emitted for a
// scenario sweep must be byte-identical whatever --threads is, because every
// (strategy, point) cell derives its seed from its grid position and writes
// only its own result slot.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/sweep.h"

namespace mobicache {
namespace {

SweepOptions SmallOptions(int threads) {
  SweepOptions options;
  options.points = 4;
  options.warmup_intervals = 2;
  options.measure_intervals = 15;
  options.num_units = 4;
  options.hotspot_size = 20;
  options.seed = 42;
  options.threads = threads;
  return options;
}

std::string SweepCsvAtThreads(int threads) {
  const StatusOr<SweepResult> result = RunScenarioSweep(
      PaperScenario::kScenario1,
      {StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kNoCache},
      SmallOptions(threads));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return std::string();
  std::ostringstream csv;
  WriteSweepCsv(*result, csv);
  return csv.str();
}

TEST(SweepParallelTest, CsvIsByteIdenticalAcrossThreadCounts) {
  const std::string csv_t1 = SweepCsvAtThreads(1);
  ASSERT_FALSE(csv_t1.empty());
  // Sanity: the sweep actually simulated something, otherwise this test
  // would vacuously compare analytic-only output.
  EXPECT_NE(csv_t1.find("TS.sim.h"), std::string::npos);

  const std::string csv_t2 = SweepCsvAtThreads(2);
  const std::string csv_t8 = SweepCsvAtThreads(8);
  EXPECT_EQ(csv_t1, csv_t2);
  EXPECT_EQ(csv_t1, csv_t8);
}

TEST(SweepParallelTest, EventAndCellTalliesMatchAcrossThreadCounts) {
  const SweepOptions base = SmallOptions(1);
  const std::vector<StrategyKind> kinds{StrategyKind::kTs,
                                        StrategyKind::kNoCache};
  const StatusOr<SweepResult> serial =
      RunScenarioSweep(PaperScenario::kScenario1, kinds, base);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  SweepOptions parallel_options = base;
  parallel_options.threads = 4;
  const StatusOr<SweepResult> parallel =
      RunScenarioSweep(PaperScenario::kScenario1, kinds, parallel_options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_GT(serial->simulated_cells, 0u);
  EXPECT_GT(serial->sim_events, 0u);
  EXPECT_EQ(serial->simulated_cells, parallel->simulated_cells);
  EXPECT_EQ(serial->sim_events, parallel->sim_events);
}

TEST(SweepParallelTest, BuildErrorsPropagateFromWorkerThreads) {
  SweepOptions options = SmallOptions(4);
  options.hotspot_size = 0;  // MegaCell::Build rejects this in every job
  const StatusOr<SweepResult> result = RunScenarioSweep(
      PaperScenario::kScenario1, {StrategyKind::kTs}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SweepParallelTest, RejectsNegativeThreadCount) {
  SweepOptions options = SmallOptions(-1);
  const StatusOr<SweepResult> result = RunScenarioSweep(
      PaperScenario::kScenario1, {StrategyKind::kTs}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SweepParallelTest, AnalyticOnlySweepRunsNoCells) {
  SweepOptions options = SmallOptions(0);  // hardware default thread count
  options.simulate = false;
  const StatusOr<SweepResult> result = RunScenarioSweep(
      PaperScenario::kScenario1, {StrategyKind::kTs, StrategyKind::kAt},
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->simulated_cells, 0u);
  EXPECT_EQ(result->sim_events, 0u);
}

}  // namespace
}  // namespace mobicache
