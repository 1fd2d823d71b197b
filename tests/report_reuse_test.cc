// Report-slot reuse (core/report.h ReuseAs, every BuildReportInto): the
// server builds every interval into a recycled arena slot that still holds
// an earlier interval's report. For every report strategy the factory
// builds, a build into one reused Report must equal, field by field and in
// ReportSizeBits, the build of a twin strategy into a fresh Report. Twin
// databases are fed one seeded update stream whose payload both grows and
// shrinks, so a builder that keeps a stale field or forgets to clear a
// list it appends to fails here.

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.h"
#include "core/strategy.h"
#include "db/database.h"
#include "exp/cell.h"
#include "exp/strategy_factory.h"
#include "sig/signature.h"
#include "util/random.h"

namespace mobicache {
namespace {

constexpr uint64_t kDbSeed = 11;
constexpr uint64_t kFamilySeed = 17;
constexpr uint64_t kIntervals = 60;
/// Updates and uplink queries favour the first kHotItems ids, so the hybrid
/// hot set, the adaptive controllers and the quasi-copy obligations all see
/// traffic.
constexpr uint64_t kHotItems = 40;

struct ReuseCase {
  StrategyKind kind;
  bool arithmetic = false;  ///< kQuasiAt only: the arithmetic condition.
};

std::string CaseName(const ::testing::TestParamInfo<ReuseCase>& info) {
  std::string name(StrategyName(info.param.kind));
  if (info.param.arithmetic) name += "_arithmetic";
  return name;
}

CellConfig ConfigFor(const ReuseCase& c) {
  CellConfig config;
  config.strategy = c.kind;
  config.quasi_arithmetic = c.arithmetic;
  config.model.n = 500;
  config.model.L = 10.0;
  config.model.k = 4;
  config.hotspot_size = 20;
  config.num_groups = 32;
  config.quasi_epsilon = 0.5;
  config.adaptive.eval_period = 8;
  EXPECT_TRUE(NormalizeCellConfig(&config).ok());
  return config;
}

/// One database and the strategy the factory builds over it, armed with the
/// strategy's retention class as Server::Start arms it.
struct Side {
  explicit Side(const CellConfig& config)
      : db(config.model.n, kDbSeed),
        family(MakeSignatureFamilyForCell(config, kFamilySeed)),
        walk(MakeNumericWalkForCell(config, kDbSeed)) {
    db.SetJournalBucketWidth(config.model.L);
    StrategyFactoryContext ctx;
    ctx.config = &config;
    ctx.sizes = ComputeMessageSizes(config.model);
    ctx.db = &db;
    ctx.family = family.get();
    ctx.walk = walk.get();
    server = MakeServerStrategy(ctx);
    db.SetRetention(server->retention());
  }

  Database db;
  std::unique_ptr<SignatureFamily> family;
  std::unique_ptr<NumericWalk> walk;
  std::unique_ptr<ServerStrategy> server;
};

void ExpectSameEntries(const std::vector<TsReportEntry>& a,
                       const std::vector<TsReportEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "entry " << i;
    EXPECT_EQ(a[i].updated_at, b[i].updated_at) << "entry " << i;
  }
}

void ExpectSameFields(const NullReport&, const NullReport&) {}

void ExpectSameFields(const TsReport& a, const TsReport& b) {
  EXPECT_EQ(a.window, b.window);
  ExpectSameEntries(a.entries, b.entries);
}

void ExpectSameFields(const AtReport& a, const AtReport& b) {
  EXPECT_EQ(a.ids, b.ids);
}

void ExpectSameFields(const SigReport& a, const SigReport& b) {
  EXPECT_EQ(a.combined, b.combined);
}

void ExpectSameFields(const AdaptiveTsReport& a, const AdaptiveTsReport& b) {
  ExpectSameEntries(a.entries, b.entries);
  ASSERT_EQ(a.window_changes.size(), b.window_changes.size());
  for (size_t i = 0; i < a.window_changes.size(); ++i) {
    EXPECT_EQ(a.window_changes[i].id, b.window_changes[i].id);
    EXPECT_EQ(a.window_changes[i].window_intervals,
              b.window_changes[i].window_intervals);
  }
  EXPECT_EQ(a.window_bits, b.window_bits);
}

void ExpectSameFields(const GroupedAtReport& a, const GroupedAtReport& b) {
  EXPECT_EQ(a.num_groups, b.num_groups);
  EXPECT_EQ(a.groups, b.groups);
}

void ExpectSameFields(const HybridReport& a, const HybridReport& b) {
  EXPECT_EQ(a.hot_ids, b.hot_ids);
  EXPECT_EQ(a.combined, b.combined);
}

void ExpectSameReport(const Report& reused, const Report& fresh) {
  ASSERT_EQ(reused.index(), fresh.index());
  std::visit(
      [&fresh](const auto& a) {
        const auto& b = std::get<std::decay_t<decltype(a)>>(fresh);
        EXPECT_EQ(a.interval, b.interval);
        EXPECT_EQ(a.timestamp, b.timestamp);
        ExpectSameFields(a, b);
      },
      reused);
}

class ReportReuseTest : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(ReportReuseTest, ReusedSlotEqualsFreshBuild) {
  const CellConfig config = ConfigFor(GetParam());
  const MessageSizes sizes = ComputeMessageSizes(config.model);
  const double L = config.model.L;
  Side reuse(config);
  Side fresh(config);
  ASSERT_NE(reuse.server, nullptr);

  Rng rng(23);
  std::vector<ItemId> ids;
  std::vector<SimTime> times;
  Report slot;
  uint64_t grew = 0;
  uint64_t shrank = 0;
  uint64_t prev_bits = 0;
  for (uint64_t i = 1; i <= kIntervals; ++i) {
    SCOPED_TRACE("interval " + std::to_string(i));
    // A burst, a silent interval, and sparse ones in between: the payload
    // grows and shrinks from one interval to the next.
    const uint64_t count = i % 5 == 1   ? 300
                           : i % 5 == 3 ? 0
                                        : 1 + rng.NextUint64(12);
    ids.clear();
    times.clear();
    for (uint64_t j = 0; j < count; ++j) {
      ids.push_back(static_cast<ItemId>(rng.Bernoulli(0.5)
                                            ? rng.NextUint64(kHotItems)
                                            : rng.NextUint64(config.model.n)));
      times.push_back(L * (static_cast<double>(i - 1) +
                           static_cast<double>(j + 1) /
                               static_cast<double>(count + 1)));
    }
    const SimTime now = L * static_cast<double>(i);
    for (Side* side : {&reuse, &fresh}) {
      if (count > 0) {
        side->db.ApplyUpdateBatch(ids.data(), times.data(), ids.size());
      }
    }
    // Uplink misses, after the interval's updates: they activate adaptive
    // controllers and quasi-copy obligations identically on both twins.
    for (int q = 0; q < 3; ++q) {
      UplinkQueryInfo info;
      info.id = static_cast<ItemId>(rng.NextUint64(kHotItems));
      info.time = now - 1e-3 * static_cast<double>(q + 1);
      info.client_id = static_cast<uint32_t>(q);
      reuse.server->OnUplinkQuery(info);
      fresh.server->OnUplinkQuery(info);
    }

    reuse.server->BuildReportInto(now, i, &slot);
    Report built;
    fresh.server->BuildReportInto(now, i, &built);
    ExpectSameReport(slot, built);
    const uint64_t bits = ReportSizeBits(built, sizes);
    EXPECT_EQ(ReportSizeBits(slot, sizes), bits);
    grew += bits > prev_bits ? 1 : 0;
    shrank += bits < prev_bits ? 1 : 0;
    prev_bits = bits;
  }
  // Reports with a variable payload must have shrunk into a slot that held
  // a larger one; SIG's payload is its fixed m signatures, and the
  // baselines' null report is empty.
  if (!std::holds_alternative<SigReport>(slot) &&
      !std::holds_alternative<NullReport>(slot)) {
    EXPECT_GT(grew, 1u);
    EXPECT_GT(shrank, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryReportStrategy, ReportReuseTest,
    ::testing::Values(ReuseCase{StrategyKind::kTs},
                      ReuseCase{StrategyKind::kAt},
                      ReuseCase{StrategyKind::kSig},
                      ReuseCase{StrategyKind::kNoCache},
                      ReuseCase{StrategyKind::kAdaptiveTs},
                      ReuseCase{StrategyKind::kQuasiAt},
                      ReuseCase{StrategyKind::kQuasiAt, /*arithmetic=*/true},
                      ReuseCase{StrategyKind::kGroupedAt},
                      ReuseCase{StrategyKind::kHybridSig},
                      ReuseCase{StrategyKind::kIdeal},
                      ReuseCase{StrategyKind::kStateful},
                      ReuseCase{StrategyKind::kAsync}),
    CaseName);

}  // namespace
}  // namespace mobicache
