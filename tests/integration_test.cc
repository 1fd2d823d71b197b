// Cross-module integration tests: the paper's safety invariant (reports
// never let a client believe a stale copy is valid), the staleness contract
// of quasi-copies, and agreement between the discrete-event simulation and
// the §4 analytical model.

#include <atomic>
#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "analysis/model.h"
#include "exp/megacell.h"

namespace mobicache {
namespace {

CellConfig BaseConfig(StrategyKind kind, double s) {
  CellConfig config;
  config.model.n = 500;
  config.model.lambda = 0.1;
  config.model.mu = 2e-3;  // enough churn to exercise invalidation
  config.model.L = 10.0;
  config.model.s = s;
  config.model.k = 8;
  config.model.f = 10;
  config.strategy = kind;
  config.num_units = 10;
  config.hotspot_size = 15;
  config.seed = 31;
  return config;
}

struct ViolationCount {
  uint64_t hits = 0;
  uint64_t violations = 0;
};

// Observers run on the shard lanes, so the tallies they share are atomic.
struct AtomicCount {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> violations{0};
};

// Runs `config` at `shards` with the no-false-valid auditor attached: every
// cache-answered batch must return the value the item had at the report
// timestamp vouching for it.
ViolationCount AuditNoFalseValid(const CellConfig& config, uint32_t shards) {
  MegaCell cell({config, shards});
  EXPECT_TRUE(cell.Build().ok());
  auto counts = std::make_shared<AtomicCount>();
  const Database* db = cell.db();
  for (MobileUnit* unit : cell.units()) {
    unit->SetAnswerObserver(
        [counts, db](ItemId id, uint64_t value, SimTime validity_ts,
                     bool hit) {
          if (!hit) return;
          ++counts->hits;
          if (value != db->ValueAt(id, validity_ts)) ++counts->violations;
        });
  }
  EXPECT_TRUE(cell.Run(10, 300).ok());
  return ViolationCount{counts->hits.load(), counts->violations.load()};
}

// The safety tests run at one shard and at four, where observers fire on
// parallel lanes and uplink values are served shard-side.
constexpr uint32_t kShardCounts[] = {1u, 4u};

TEST(SafetyTest, TsNeverAnswersStaleValues) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const ViolationCount c =
        AuditNoFalseValid(BaseConfig(StrategyKind::kTs, 0.4), shards);
    EXPECT_GT(c.hits, 1000u);
    EXPECT_EQ(c.violations, 0u);
  }
}

TEST(SafetyTest, AtNeverAnswersStaleValues) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const ViolationCount c =
        AuditNoFalseValid(BaseConfig(StrategyKind::kAt, 0.4), shards);
    EXPECT_GT(c.hits, 100u);
    EXPECT_EQ(c.violations, 0u);
  }
}

TEST(SafetyTest, AdaptiveTsNeverAnswersStaleValues) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const ViolationCount c =
        AuditNoFalseValid(BaseConfig(StrategyKind::kAdaptiveTs, 0.4), shards);
    EXPECT_GT(c.hits, 100u);
    EXPECT_EQ(c.violations, 0u);
  }
}

TEST(SafetyTest, IdealNeverAnswersStaleValues) {
  // Push-invalidation keeps copies exact at all times; validity_ts is the
  // answer instant itself.
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const ViolationCount c =
        AuditNoFalseValid(BaseConfig(StrategyKind::kIdeal, 0.4), shards);
    EXPECT_GT(c.hits, 1000u);
    EXPECT_EQ(c.violations, 0u);
  }
}

TEST(SafetyTest, SigFalseValidRateIsTiny) {
  // SIG is probabilistic: a changed item can slip under the syndrome
  // threshold. The rate must stay well below the analytic tail estimate.
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const ViolationCount c =
        AuditNoFalseValid(BaseConfig(StrategyKind::kSig, 0.4), shards);
    EXPECT_GT(c.hits, 1000u);
    EXPECT_LT(static_cast<double>(c.violations) /
                  static_cast<double>(c.hits),
              0.01);
  }
}

TEST(SafetyTest, QuasiAtHonoursStalenessBound) {
  // Delay-condition quasi-copies may serve values up to alpha + L old, but
  // never older.
  CellConfig config = BaseConfig(StrategyKind::kQuasiAt, 0.2);
  config.quasi_alpha_intervals = 3;
  const double bound =
      config.model.L * static_cast<double>(config.quasi_alpha_intervals) +
      config.model.L;
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    MegaCell cell({config, shards});
    ASSERT_TRUE(cell.Build().ok());
    auto counts = std::make_shared<AtomicCount>();
    const Database* db = cell.db();
    for (MobileUnit* unit : cell.units()) {
      unit->SetAnswerObserver([=](ItemId id, uint64_t value,
                                  SimTime validity_ts, bool hit) {
        if (!hit) return;
        ++counts->hits;
        // The answered value must have been current at some instant within
        // [validity_ts - bound, validity_ts].
        const uint64_t v_lo = db->VersionAt(id, validity_ts - bound);
        const uint64_t v_hi = db->VersionAt(id, validity_ts);
        bool ok = false;
        for (uint64_t v = v_lo; v <= v_hi && !ok; ++v) {
          ok = value == SyntheticValue(db->seed(), id, v);
        }
        if (!ok) ++counts->violations;
      });
    }
    ASSERT_TRUE(cell.Run(10, 300).ok());
    EXPECT_GT(counts->hits.load(), 500u);
    EXPECT_EQ(counts->violations.load(), 0u);
  }
}

TEST(SafetyTest, JitteredDeliveryNeverAnswersStaleValues) {
  // Contention jitter delivers each report after its nominal instant, so
  // the audits read further behind the broadcast that last pruned the raw
  // log. Every read must stay inside the log the server keeps (asserted in
  // debug builds) and find no stale answer.
  for (StrategyKind kind :
       {StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kAdaptiveTs}) {
    CellConfig config = BaseConfig(kind, 0.4);
    config.delivery = DeliveryModelKind::kCsmaJitter;
    config.mean_jitter_seconds = 2.0;
    for (uint32_t shards : kShardCounts) {
      SCOPED_TRACE(std::string(StrategyName(kind)) +
                   " shards=" + std::to_string(shards));
      const ViolationCount c = AuditNoFalseValid(config, shards);
      EXPECT_GT(c.hits, 100u);
      EXPECT_EQ(c.violations, 0u);
    }
  }
}

double SimulatedHitRatio(StrategyKind kind, double s, uint64_t seed) {
  CellConfig config;
  config.model.n = 1000;  // Scenario-1 shaped
  config.model.lambda = 0.1;
  config.model.mu = 1e-4;
  config.model.L = 10.0;
  config.model.s = s;
  config.model.k = 10;
  config.model.f = 10;
  config.strategy = kind;
  config.num_units = 20;
  config.hotspot_size = 20;
  config.seed = seed;
  MegaCell cell({config});
  EXPECT_TRUE(cell.Build().ok());
  EXPECT_TRUE(cell.Run(50, 600).ok());
  return cell.result().hit_ratio;
}

TEST(ModelAgreementTest, AtHitRatioMatchesEq20) {
  for (double s : {0.0, 0.3, 0.6}) {
    ModelParams p;
    p.s = s;
    p.k = 10;
    const double model = AtHitRatio(p);
    const double sim = SimulatedHitRatio(StrategyKind::kAt, s, 5);
    EXPECT_NEAR(sim, model, 0.04) << "s=" << s;
  }
}

TEST(ModelAgreementTest, TsHitRatioWithinAppendixBounds) {
  for (double s : {0.0, 0.3, 0.6, 0.9}) {
    ModelParams p;
    p.s = s;
    p.k = 10;
    const TsHitBounds bounds = TsHitRatioBounds(p);
    const double sim = SimulatedHitRatio(StrategyKind::kTs, s, 7);
    EXPECT_GT(sim, bounds.lower - 0.04) << "s=" << s;
    EXPECT_LT(sim, bounds.upper + 0.04) << "s=" << s;
  }
}

TEST(ModelAgreementTest, SigHitRatioAtLeastModel) {
  // Eq. 26 uses the Chernoff *bound* on false alarms, so the simulated hit
  // ratio should sit at or above the model, and below the AT-shaped
  // no-false-alarm ceiling.
  for (double s : {0.0, 0.4}) {
    ModelParams p;
    p.s = s;
    p.k = 10;
    const double sim = SimulatedHitRatio(StrategyKind::kSig, s, 9);
    EXPECT_GT(sim, SigHitRatio(p) - 0.04) << "s=" << s;
    const IntervalProbabilities pr = ComputeIntervalProbabilities(p);
    const double ceiling = (1.0 - pr.p0) * pr.u0 / (1.0 - pr.p0 * pr.u0);
    EXPECT_LT(sim, ceiling + 0.04) << "s=" << s;
  }
}

TEST(ModelAgreementTest, IdealHitRatioMatchesEffectiveLambdaMhr) {
  // The ideal cell's query stream is gated by sleep, so its measured hit
  // ratio follows MHR with lambda_eff = lambda (1 - s) (the paper's Eq. 13
  // idealizes sleep away; see EXPERIMENTS.md).
  const double s = 0.5;
  const double sim = SimulatedHitRatio(StrategyKind::kIdeal, s, 11);
  const double lambda_eff = 0.1 * (1.0 - s);
  const double expected = lambda_eff / (lambda_eff + 1e-4);
  EXPECT_NEAR(sim, expected, 0.01);
}

TEST(ModelAgreementTest, ReportSizesMatchFormulas) {
  CellConfig config;
  config.model.n = 1000;
  config.model.mu = 1e-3;
  config.model.k = 5;
  config.strategy = StrategyKind::kTs;
  config.num_units = 3;
  config.hotspot_size = 10;
  config.seed = 13;
  MegaCell cell({config});
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(20, 400).ok());
  const double expected = TsReportBits(config.model);
  EXPECT_NEAR(cell.result().avg_report_bits, expected, expected * 0.05);
}

TEST(ModelAgreementTest, AnswerLatencyMatchesClosedForm) {
  for (double s : {0.0, 0.4}) {
    CellConfig config;
    config.model.s = s;
    config.model.k = 10;
    config.strategy = StrategyKind::kAt;
    config.num_units = 20;
    config.hotspot_size = 20;
    config.seed = 23;
    MegaCell cell({config});
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(30, 500).ok());
    const double expected =
        ExpectedAnswerLatency(config.model, cell.result().avg_report_bits);
    EXPECT_NEAR(cell.result().mean_answer_latency, expected,
                expected * 0.05)
        << "s=" << s;
  }
}

TEST(ModelAgreementTest, StatefulLosesCacheOnWakeButIdealDoesNot) {
  const double ideal = SimulatedHitRatio(StrategyKind::kIdeal, 0.5, 17);
  const double stateful = SimulatedHitRatio(StrategyKind::kStateful, 0.5, 17);
  EXPECT_GT(ideal, stateful + 0.1);
}

}  // namespace
}  // namespace mobicache
