#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/at.h"
#include "core/nocache.h"
#include "db/database.h"
#include "exp/megacell.h"
#include "mu/hotspot.h"
#include "mu/mobile_unit.h"
#include "mu/sleep_model.h"
#include "mu/uplink.h"
#include "util/random.h"

namespace mobicache {
namespace {

TEST(HotSpotTest, ContiguousWrapsAndSorts) {
  const auto hs = ContiguousHotSpot(10, 8, 4);  // 8, 9, 0, 1
  EXPECT_EQ(hs, (std::vector<ItemId>{0, 1, 8, 9}));
  EXPECT_EQ(ContiguousHotSpot(10, 0, 3), (std::vector<ItemId>{0, 1, 2}));
}

TEST(HotSpotTest, RandomIsDistinctAndBounded) {
  Rng rng(3);
  const auto hs = RandomHotSpot(100, 30, rng);
  EXPECT_EQ(hs.size(), 30u);
  for (size_t i = 1; i < hs.size(); ++i) {
    EXPECT_LT(hs[i - 1], hs[i]);  // sorted and distinct
    EXPECT_LT(hs[i], 100u);
  }
}

TEST(HotSpotTest, GridNeighborhoodClipsAtBorders) {
  // 4x4 grid, centre (0,0), radius 1 -> 2x2 block.
  const auto corner = GridNeighborhoodHotSpot(4, 4, 0, 0, 1);
  EXPECT_EQ(corner, (std::vector<ItemId>{0, 1, 4, 5}));
  // Centre (2,2), radius 1 -> 3x3 block.
  const auto middle = GridNeighborhoodHotSpot(4, 4, 2, 2, 1);
  EXPECT_EQ(middle.size(), 9u);
  EXPECT_EQ(middle[4], 2u * 4u + 2u);  // centre section in the middle
}

TEST(SleepModelTest, BernoulliExtremes) {
  BernoulliSleepModel always_awake(0.0, 1);
  BernoulliSleepModel always_asleep(1.0, 1);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(always_awake.AwakeForInterval(i));
    EXPECT_FALSE(always_asleep.AwakeForInterval(i));
  }
}

TEST(SleepModelTest, BernoulliFrequencyMatchesS) {
  BernoulliSleepModel model(0.3, 5);
  int asleep = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (!model.AwakeForInterval(static_cast<uint64_t>(i))) ++asleep;
  }
  EXPECT_NEAR(static_cast<double>(asleep) / trials, 0.3, 0.01);
  EXPECT_DOUBLE_EQ(model.EffectiveSleepProbability(), 0.3);
}

TEST(SleepModelTest, RenewalMatchesStationaryEstimate) {
  const double L = 10.0, mean_awake = 100.0, mean_sleep = 50.0;
  RenewalSleepModel model(L, mean_awake, mean_sleep, 7);
  int asleep = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    if (!model.AwakeForInterval(static_cast<uint64_t>(i))) ++asleep;
  }
  const double measured = static_cast<double>(asleep) / trials;
  EXPECT_NEAR(measured, model.EffectiveSleepProbability(), 0.02);
}

TEST(SleepModelTest, RenewalAllAwakeWhenSleepNegligible) {
  RenewalSleepModel model(1.0, 1e9, 1e-9, 7);
  int awake = 0;
  for (int i = 0; i < 1000; ++i) {
    if (model.AwakeForInterval(static_cast<uint64_t>(i))) ++awake;
  }
  EXPECT_GT(awake, 990);
}

// Builds a unit over the real shard uplink and a small database, so the
// uplink's log shows every fetch and answers carry database values.
struct MuRig {
  explicit MuRig(double lambda = 0.2, double s = 0.0)
      : db(16, 3), uplink(&sim, &db) {
    MobileUnitConfig config;
    config.latency = 10.0;
    config.lambda_per_item = lambda;
    config.hotspot = {0, 1, 2, 3, 4};
    unit = std::make_unique<MobileUnit>(
        &sim, config, std::make_unique<AtClientManager>(),
        std::make_unique<BernoulliSleepModel>(s, 11), &uplink, 21);
  }

  // Broadcasts an AT report at T = 10 * interval; an awake unit hears it.
  void Broadcast(uint64_t interval, std::vector<ItemId> ids = {}) {
    AtReport r;
    r.interval = interval;
    r.timestamp = 10.0 * static_cast<double>(interval);
    r.ids = std::move(ids);
    sim.RunUntil(r.timestamp);
    if (unit->awake()) unit->OnReportDelivery(Report(r));
  }

  Simulator sim;
  Database db;
  Uplink uplink;
  std::unique_ptr<MobileUnit> unit;
};

TEST(MobileUnitTest, QueriesAreQueuedAndAnsweredAtNextReport) {
  MuRig rig;
  ASSERT_TRUE(rig.unit->Start().ok());
  rig.Broadcast(0);
  rig.sim.RunUntil(10.0);  // interval 0 queries arrive
  const uint64_t issued = rig.unit->stats().queries_issued;
  EXPECT_GT(issued, 0u);
  EXPECT_EQ(rig.unit->stats().queries_answered, 0u);
  rig.Broadcast(1);
  EXPECT_GT(rig.unit->stats().queries_answered, 0u);
  // Everything was a miss (cold cache) and went uplink once per item batch.
  EXPECT_EQ(rig.unit->stats().hits, 0u);
  EXPECT_EQ(rig.uplink.log().size(), rig.unit->stats().misses);
}

TEST(MobileUnitTest, SecondRoundHitsCachedItems) {
  MuRig rig(/*lambda=*/1.0);  // hot: every item queried every interval
  ASSERT_TRUE(rig.unit->Start().ok());
  rig.Broadcast(0);
  rig.sim.RunUntil(10.0);
  rig.Broadcast(1);  // answers, fills cache
  rig.sim.RunUntil(20.0);
  rig.Broadcast(2);  // no changes -> all hits
  EXPECT_GT(rig.unit->stats().hits, 0u);
}

TEST(MobileUnitTest, BatchesMergeSameItemQueries) {
  MuRig rig(/*lambda=*/5.0);  // ~50 arrivals per item per interval
  ASSERT_TRUE(rig.unit->Start().ok());
  rig.Broadcast(0);
  rig.sim.RunUntil(10.0);
  rig.Broadcast(1);
  const MobileUnitStats& st = rig.unit->stats();
  EXPECT_GT(st.queries_issued, st.queries_answered);
  // At most one batch per hot-spot item.
  EXPECT_LE(st.queries_answered, 5u);
}

TEST(MobileUnitTest, AsleepUnitMissesReportsAndIssuesNoQueries) {
  MuRig rig(/*lambda=*/0.2, /*s=*/1.0);
  ASSERT_TRUE(rig.unit->Start().ok());
  rig.Broadcast(0);
  rig.sim.RunUntil(10.0);
  rig.Broadcast(1);
  EXPECT_EQ(rig.unit->stats().queries_issued, 0u);
  EXPECT_EQ(rig.unit->stats().queries_answered, 0u);
  EXPECT_TRUE(rig.uplink.log().empty());
  EXPECT_FALSE(rig.unit->awake());
}

TEST(MobileUnitTest, PendingQueriesSurviveSleepAndAnswerLater) {
  // Deterministic pattern: awake in interval 0, asleep in 1, awake in 2.
  MobileUnitConfig config;
  config.latency = 10.0;
  config.lambda_per_item = 2.0;
  config.hotspot = {0};
  Simulator sim;
  Database db(4, 3);
  Uplink uplink(&sim, &db);

  class ScriptedSleep : public SleepModel {
   public:
    bool AwakeForInterval(uint64_t interval) override {
      return interval != 1;
    }
    double EffectiveSleepProbability() const override { return 0.0; }
  };

  MobileUnit unit(&sim, config, std::make_unique<AtClientManager>(),
                  std::make_unique<ScriptedSleep>(), &uplink, 21);
  ASSERT_TRUE(unit.Start().ok());

  auto broadcast = [&](uint64_t i) {
    AtReport r;
    r.interval = i;
    r.timestamp = 10.0 * static_cast<double>(i);
    sim.RunUntil(r.timestamp);
    if (unit.awake()) unit.OnReportDelivery(Report(r));
  };
  broadcast(0);
  sim.RunUntil(10.0);  // queries issued during interval 0
  ASSERT_GT(unit.stats().queries_issued, 0u);
  broadcast(1);  // asleep: missed; pending queries wait
  EXPECT_EQ(unit.stats().queries_answered, 0u);
  sim.RunUntil(20.0);
  broadcast(2);  // awake again: pending from interval 0 answered now
  EXPECT_EQ(unit.stats().queries_answered, 1u);  // one batch for item 0
  EXPECT_GT(unit.stats().answer_latency.mean(), 10.0);
}

TEST(MobileUnitTest, AnswerObserverSeesValues) {
  MuRig rig(/*lambda=*/1.0);
  std::vector<std::pair<ItemId, uint64_t>> answers;
  rig.unit->SetAnswerObserver([&](ItemId id, uint64_t value, SimTime, bool) {
    answers.emplace_back(id, value);
  });
  ASSERT_TRUE(rig.unit->Start().ok());
  rig.Broadcast(0);
  rig.sim.RunUntil(10.0);
  rig.Broadcast(1);
  ASSERT_FALSE(answers.empty());
  // No updates ran, so every answer is the database's current value.
  for (const auto& [id, value] : answers) EXPECT_EQ(value, rig.db.ValueOf(id));
}

TEST(MobileUnitTest, NoCacheManagerAlwaysGoesUplink) {
  MobileUnitConfig config;
  config.latency = 10.0;
  config.lambda_per_item = 1.0;
  config.hotspot = {0, 1};
  Simulator sim;
  Database db(4, 3);
  Uplink uplink(&sim, &db);
  MobileUnit unit(&sim, config, std::make_unique<NoCacheClientManager>(),
                  std::make_unique<BernoulliSleepModel>(0.0, 1), &uplink, 5);
  ASSERT_TRUE(unit.Start().ok());
  for (uint64_t i = 0; i <= 3; ++i) {
    NullReport r;
    r.interval = i;
    r.timestamp = 10.0 * static_cast<double>(i);
    sim.RunUntil(r.timestamp);
    if (unit.awake()) unit.OnReportDelivery(Report(r));
  }
  EXPECT_EQ(unit.stats().hits, 0u);
  EXPECT_GT(unit.stats().misses, 0u);
  EXPECT_TRUE(unit.cache()->empty());
}

TEST(MobileUnitTest, ZipfQueryPopularitySkewsItemChoice) {
  // Low per-item rate so uplink batches approximate raw query counts
  // (batching collapses same-interval repeats and would mask the skew).
  MobileUnitConfig config;
  config.latency = 10.0;
  config.lambda_per_item = 0.05;
  config.hotspot = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  config.query_zipf_theta = 1.2;
  Simulator sim;
  Database db(16, 3);
  Uplink uplink(&sim, &db);
  MobileUnit unit(&sim, config, std::make_unique<NoCacheClientManager>(),
                  std::make_unique<BernoulliSleepModel>(0.0, 1), &uplink, 5);
  ASSERT_TRUE(unit.Start().ok());
  for (uint64_t i = 0; i <= 2000; ++i) {
    NullReport r;
    r.interval = i;
    r.timestamp = 10.0 * static_cast<double>(i);
    sim.RunUntil(r.timestamp);
    if (unit.awake()) unit.OnReportDelivery(Report(r));
  }
  // Count uplink queries per item (no-cache: every batch goes uplink).
  std::vector<uint64_t> counts(10, 0);
  for (const Uplink::LogRecord& rec : uplink.log()) ++counts[rec.info.id];
  // The first item must be queried far more often than the last
  // (Zipf(1.2) pmf ratio is ~16; batching compresses it somewhat).
  EXPECT_GT(counts[0], counts[9] * 3);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_GT(total, 500u);
}

TEST(MobileUnitTest, ResetStatsClearsCounters) {
  MuRig rig(1.0);
  ASSERT_TRUE(rig.unit->Start().ok());
  rig.Broadcast(0);
  rig.sim.RunUntil(10.0);
  rig.Broadcast(1);
  ASSERT_GT(rig.unit->stats().queries_answered, 0u);
  rig.unit->ResetStats();
  EXPECT_EQ(rig.unit->stats().queries_answered, 0u);
  EXPECT_EQ(rig.unit->stats().queries_issued, 0u);
}

// Broadcast accounting (reports heard and missed, listen seconds) lives in
// the cell engine's SoA lanes, not in the unit; these read it per unit
// through MegaCell::UnitStats.
CellConfig BroadcastCountersCell(double s) {
  CellConfig config;
  config.model.n = 50;
  config.model.lambda = 0.1;
  config.model.mu = 1e-3;
  config.model.L = 10.0;
  config.model.s = s;
  config.strategy = StrategyKind::kAt;
  config.num_units = 4;
  config.hotspot_size = 5;
  config.seed = 3;
  return config;
}

TEST(MobileUnitBroadcastStatsTest, AwakeUnitsHearEveryReportAndPayListenTime) {
  MegaCell cell({BroadcastCountersCell(/*s=*/0.0)});
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(2, 10).ok());
  const uint64_t deliveries = cell.server()->deliveries_completed();
  ASSERT_GT(deliveries, 0u);
  const std::vector<MobileUnit*> units = cell.units();
  for (uint64_t i = 0; i < units.size(); ++i) {
    SCOPED_TRACE("unit " + std::to_string(i));
    const MobileUnitStats st = cell.UnitStats(i);
    EXPECT_EQ(st.reports_heard, deliveries);
    EXPECT_EQ(st.reports_missed, 0u);
    EXPECT_GT(st.listen_seconds, 0.0);
    EXPECT_GT(st.hits, 0u);
    // The unit's own copies stay zero: the SoA lanes own the counters.
    EXPECT_EQ(units[i]->stats().reports_heard, 0u);
    EXPECT_EQ(units[i]->stats().listen_seconds, 0.0);
  }
}

TEST(MobileUnitBroadcastStatsTest, SleepingUnitsMissEveryReport) {
  MegaCell cell({BroadcastCountersCell(/*s=*/1.0)});
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(2, 10).ok());
  const uint64_t deliveries = cell.server()->deliveries_completed();
  ASSERT_GT(deliveries, 0u);
  for (uint64_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("unit " + std::to_string(i));
    const MobileUnitStats st = cell.UnitStats(i);
    EXPECT_EQ(st.queries_issued, 0u);
    EXPECT_EQ(st.reports_heard, 0u);
    EXPECT_EQ(st.reports_missed, deliveries);
    EXPECT_EQ(st.listen_seconds, 0.0);
  }
}

TEST(MobileUnitBroadcastStatsTest, WarmupResetClearsBroadcastCounters) {
  // 20 warm-up intervals, then 5 measured: an always-awake unit must report
  // only the measured deliveries, not the warm-up ones.
  MegaCell cell({BroadcastCountersCell(/*s=*/0.0)});
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(20, 5).ok());
  for (uint64_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("unit " + std::to_string(i));
    const MobileUnitStats st = cell.UnitStats(i);
    EXPECT_GT(st.reports_heard, 0u);
    EXPECT_LE(st.reports_heard, 6u);
    EXPECT_EQ(st.reports_heard, cell.server()->deliveries_completed());
  }
}

}  // namespace
}  // namespace mobicache
