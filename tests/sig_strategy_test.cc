#include <gtest/gtest.h>

#include "core/sig_strategy.h"
#include "counting_new.h"
#include "db/database.h"
#include "exp/megacell.h"

namespace mobicache {
namespace {

constexpr double kL = 10.0;

SignatureParams Params() {
  SignatureParams p;
  p.m = PaperRequiredSignatures(300, 5, 0.05);
  p.f = 5;
  p.g = 16;
  p.k_threshold = 1.25;
  return p;
}

struct Rig {
  Rig() : db(300, 3), family(300, Params(), 17), server(&db, &family, kL) {}

  SigReport Build(uint64_t interval) {
    Report report;
    server.BuildReportInto(kL * static_cast<double>(interval), interval,
                           &report);
    return std::get<SigReport>(report);
  }

  Database db;
  SignatureFamily family;
  SigServerStrategy server;
};

TEST(SigServerTest, ReportCarriesAllSignatures) {
  Rig rig;
  const SigReport r = rig.Build(0);
  EXPECT_EQ(r.combined.size(), Params().m);
  EXPECT_DOUBLE_EQ(r.timestamp, 0.0);
}

TEST(SigServerTest, SignaturesChangeOnlyWhenDataChanges) {
  Rig rig;
  const SigReport r0 = rig.Build(0);
  const SigReport r1 = rig.Build(1);
  EXPECT_EQ(r0.combined, r1.combined);
  rig.db.ApplyUpdate(42, 15.0);
  const SigReport r2 = rig.Build(2);
  EXPECT_NE(r1.combined, r2.combined);
}

TEST(SigServerTest, FoldsMultiIntervalBacklog) {
  // Even updates spread over several intervals between builds are folded.
  Rig rig;
  rig.Build(0);
  rig.db.ApplyUpdate(1, 5.0);
  rig.db.ApplyUpdate(2, 15.0);
  rig.db.ApplyUpdate(3, 25.0);
  const SigReport r3 = rig.Build(3);
  ServerSignatureState fresh(&rig.family, &rig.db);
  EXPECT_EQ(r3.combined, fresh.Combined());
}

TEST(SigClientTest, InvalidatesChangedItemAfterSleep) {
  Rig rig;
  std::vector<ItemId> interest{1, 2, 3, 4, 5};
  SigClientManager client(&rig.family, interest);
  ClientCache cache;

  // Hear report 0, fetch items.
  client.OnReport(rig.Build(0), &cache);
  client.OnUplinkFetch(1, 11, 0.5, &cache);
  client.OnUplinkFetch(2, 22, 0.5, &cache);

  // Sleep through intervals 1-4 while item 2 changes.
  rig.db.ApplyUpdate(2, 23.0);
  rig.Build(1);
  rig.Build(2);
  rig.Build(3);

  // Wake at interval 4: SIG has no drop window; item 1 survives, item 2 is
  // diagnosed invalid.
  const uint64_t invalidated = client.OnReport(rig.Build(4), &cache);
  EXPECT_GE(invalidated, 1u);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_DOUBLE_EQ(cache.Peek(1)->timestamp, 40.0);
}

TEST(SigClientTest, FirstReportDropsUnverifiedEntries) {
  Rig rig;
  SigClientManager client(&rig.family, {1, 2, 3});
  ClientCache cache;
  cache.Put(1, 99, 0.0);
  EXPECT_FALSE(client.HasValidBaseline());
  EXPECT_EQ(client.OnReport(rig.Build(0), &cache), 1u);
  EXPECT_TRUE(cache.empty());
  EXPECT_TRUE(client.HasValidBaseline());
}

TEST(SigClientTest, ViewOnlyKeepsRelevantSubsets) {
  Rig rig;
  SigClientManager narrow(&rig.family, {1});
  SigClientManager wide(&rig.family, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_LT(narrow.view().cached_signature_count(),
            wide.view().cached_signature_count());
  EXPECT_LE(wide.view().cached_signature_count(),
            static_cast<size_t>(Params().m));
}

// Warm SIG cell steady state: units wake, query, cache and diagnose every
// report they hear (invalidations included) through the keyed baselines,
// the membership rows and the family's invalid-id scratch; the server folds
// through its subset lists. Once warm none of that allocates, so two runs
// that differ only in measured intervals allocate equally often. Eight
// items of the shared ten-item hot spot change every interval (rate 1/s
// against L = 10 s) and each unit asks ~20 queries per interval, so the
// buffers outside the signature path that grow to a per-interval maximum
// (query batches, the fold's changed-id list) reach it during warm-up.
TEST(SigCellAllocationTest, WarmDiagnosingCellSteadyStateAllocatesNothing) {
  auto run_allocs = [](uint64_t measure, size_t* allocs, CellResult* result) {
    const size_t before = g_new_calls.load();
    MegaCellConfig mc;
    mc.cell.model.n = 400;
    mc.cell.model.lambda = 2.0;
    mc.cell.model.s = 0.5;
    mc.cell.model.L = kL;
    mc.cell.update_rates.assign(mc.cell.model.n, 0.0);
    for (ItemId id = 0; id < 8; ++id) mc.cell.update_rates[id] = 1.0;
    mc.cell.strategy = StrategyKind::kSig;
    mc.cell.num_units = 16;
    mc.cell.hotspot_size = 10;
    mc.cell.seed = 77;
    mc.num_shards = 2;
    MegaCell cell(std::move(mc));
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(200, measure).ok());
    *result = cell.result();
    *allocs = g_new_calls.load() - before;
  };
  size_t short_allocs = 0, long_allocs = 0;
  CellResult short_run, long_run;
  ASSERT_NO_FATAL_FAILURE(run_allocs(100, &short_allocs, &short_run));
  ASSERT_NO_FATAL_FAILURE(run_allocs(200, &long_allocs, &long_run));
  EXPECT_EQ(long_allocs, short_allocs) << "warm SIG diagnosis allocated";
  EXPECT_GT(long_run.items_invalidated, short_run.items_invalidated);
  EXPECT_GT(long_run.reports_broadcast, short_run.reports_broadcast);
}

}  // namespace
}  // namespace mobicache
