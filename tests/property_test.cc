// Parameterized property sweeps: structural invariants that must hold for
// every strategy, sleep probability, and seed combination.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "exp/megacell.h"

namespace mobicache {
namespace {

using PropertyParams = std::tuple<StrategyKind, double /*s*/, uint64_t /*seed*/>;

class CellPropertyTest : public ::testing::TestWithParam<PropertyParams> {
 protected:
  CellConfig MakeConfig() const {
    const auto& [kind, s, seed] = GetParam();
    CellConfig config;
    config.model.n = 300;
    config.model.lambda = 0.15;
    config.model.mu = 1e-3;
    config.model.L = 10.0;
    config.model.s = s;
    config.model.k = 6;
    config.model.f = 5;
    config.strategy = kind;
    config.num_units = 6;
    config.hotspot_size = 12;
    config.seed = seed;
    return config;
  }
};

TEST_P(CellPropertyTest, InvariantsHold) {
  MegaCell cell({MakeConfig()});
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(10, 150).ok());
  const CellResult r = cell.result();

  // Counting invariants.
  EXPECT_EQ(r.hits + r.misses, r.queries_answered);
  EXPECT_GE(r.hit_ratio, 0.0);
  EXPECT_LE(r.hit_ratio, 1.0);
  EXPECT_EQ(r.reports_broadcast, 150u);

  // Every broadcast is either heard or missed by each awake/sleeping unit.
  EXPECT_EQ(r.reports_heard + r.reports_missed,
            r.reports_broadcast * cell.config().cell.num_units);

  // Channel accounting: one uplink per miss (plus piggyback-free answers).
  EXPECT_EQ(r.channel.uplink_query_count, r.misses);
  EXPECT_EQ(r.channel.downlink_answer_count, r.misses);
  EXPECT_GE(r.channel.uplink_query_bits,
            r.misses * cell.config().cell.model.bq);

  // Per-unit cache contents only ever come from the unit's hot spot.
  for (MobileUnit* unit : cell.units()) {
    const auto& hotspot = unit->config().hotspot;
    for (ItemId id : unit->cache()->Items()) {
      EXPECT_TRUE(std::binary_search(hotspot.begin(), hotspot.end(), id));
    }
  }
}

TEST_P(CellPropertyTest, DeterministicReplay) {
  auto run_once = [&] {
    MegaCell cell({MakeConfig()});
    EXPECT_TRUE(cell.Build().ok());
    EXPECT_TRUE(cell.Run(5, 60).ok());
    const CellResult r = cell.result();
    return std::make_tuple(r.queries_answered, r.hits,
                           r.channel.total_bits());
  };
  EXPECT_EQ(run_once(), run_once());
}

std::string ParamName(
    const ::testing::TestParamInfo<PropertyParams>& info) {
  const auto& [kind, s, seed] = info.param;
  std::string name(StrategyName(kind));
  name += "_s" + std::to_string(static_cast<int>(s * 100));
  name += "_seed" + std::to_string(seed);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, CellPropertyTest,
    ::testing::Combine(
        ::testing::Values(StrategyKind::kTs, StrategyKind::kAt,
                          StrategyKind::kSig, StrategyKind::kNoCache,
                          StrategyKind::kAdaptiveTs, StrategyKind::kQuasiAt,
                          StrategyKind::kGroupedAt, StrategyKind::kAsync),
        ::testing::Values(0.0, 0.5, 0.9),
        ::testing::Values(1u, 99u)),
    ParamName);

// The stateful baselines answer immediately (no reports consumed), so the
// heard/missed invariant differs; they get their own instantiation of the
// counting properties.
class StatefulPropertyTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, double>> {};

TEST_P(StatefulPropertyTest, CountingInvariants) {
  const auto& [kind, s] = GetParam();
  CellConfig config;
  config.model.n = 300;
  config.model.mu = 1e-3;
  config.model.s = s;
  config.strategy = kind;
  config.num_units = 6;
  config.hotspot_size = 12;
  config.seed = 3;
  MegaCell cell({config});
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(10, 150).ok());
  const CellResult r = cell.result();
  EXPECT_EQ(r.hits + r.misses, r.queries_answered);
  // Uplink traffic = one query per miss, plus (kStateful only) the
  // sleep/wake control protocol; kIdeal charges nothing extra.
  const uint64_t control = kind == StrategyKind::kStateful
                               ? cell.registry_control_messages()
                               : 0u;
  EXPECT_EQ(r.channel.uplink_query_count, r.misses + control);
  EXPECT_LE(r.hit_ratio, 1.0);
}

std::string StatefulParamName(
    const ::testing::TestParamInfo<std::tuple<StrategyKind, double>>& info) {
  const auto& [kind, s] = info.param;
  return std::string(StrategyName(kind)) + "_s" +
         std::to_string(static_cast<int>(s * 100));
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, StatefulPropertyTest,
    ::testing::Combine(::testing::Values(StrategyKind::kIdeal,
                                         StrategyKind::kStateful),
                       ::testing::Values(0.0, 0.5)),
    StatefulParamName);

}  // namespace
}  // namespace mobicache
