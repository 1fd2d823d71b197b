#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/update_generator.h"
#include "sim/simulator.h"

namespace mobicache {
namespace {

TEST(DatabaseTest, InitialStateIsDeterministic) {
  Database a(10, 42), b(10, 42), c(10, 43);
  for (ItemId i = 0; i < 10; ++i) {
    EXPECT_EQ(a.Get(i).value, b.Get(i).value);
    EXPECT_EQ(a.Get(i).version, 0u);
    EXPECT_EQ(a.Get(i).last_update, 0.0);
  }
  EXPECT_NE(a.Get(0).value, c.Get(0).value);
}

TEST(DatabaseTest, SyntheticValueMatchesGetterContract) {
  Database db(5, 7);
  EXPECT_EQ(db.Get(3).value, SyntheticValue(7, 3, 0));
  db.ApplyUpdate(3, 1.0);
  EXPECT_EQ(db.Get(3).value, SyntheticValue(7, 3, 1));
}

TEST(DatabaseTest, ApplyUpdateBumpsVersionValueTimestamp) {
  Database db(4, 1);
  const uint64_t before = db.Get(2).value;
  db.ApplyUpdate(2, 5.0);
  EXPECT_EQ(db.Get(2).version, 1u);
  EXPECT_NE(db.Get(2).value, before);
  EXPECT_DOUBLE_EQ(db.Get(2).last_update, 5.0);
  EXPECT_EQ(db.total_updates(), 1u);
}

TEST(DatabaseTest, UpdatedInWindowSemantics) {
  Database db(10, 1);
  db.ApplyUpdate(1, 1.0);
  db.ApplyUpdate(2, 2.0);
  db.ApplyUpdate(3, 3.0);
  // Window (lo, hi]: lo exclusive, hi inclusive.
  std::vector<UpdatedItem> items;
  db.UpdatedIn(1.0, 3.0, &items);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].id, 2u);
  EXPECT_EQ(items[1].id, 3u);
  EXPECT_DOUBLE_EQ(items[1].updated_at, 3.0);
  db.UpdatedIn(3.0, 3.0, &items);
  EXPECT_TRUE(items.empty());
  db.UpdatedIn(5.0, 4.0, &items);
  EXPECT_TRUE(items.empty());
}

TEST(DatabaseTest, UpdatedInReportsLatestUpdateOnly) {
  Database db(10, 1);
  db.ApplyUpdate(4, 1.0);
  db.ApplyUpdate(4, 2.0);
  db.ApplyUpdate(4, 3.0);
  std::vector<UpdatedItem> items;
  db.UpdatedIn(0.0, 3.0, &items);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_DOUBLE_EQ(items[0].updated_at, 3.0);
  // An item whose *last* update is outside the window is excluded even if
  // it changed inside it (Eq. 1 reports last-update timestamps only).
  db.UpdatedIn(0.0, 2.5, &items);
  EXPECT_TRUE(items.empty());
}

TEST(DatabaseTest, JournalInReturnsEveryEvent) {
  Database db(10, 1);
  db.ApplyUpdate(4, 1.0);
  db.ApplyUpdate(4, 2.0);
  db.ApplyUpdate(5, 2.5);
  auto events = db.JournalIn(0.0, 3.0);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].id, 4u);
  EXPECT_EQ(events[2].id, 5u);
  EXPECT_EQ(db.JournalIn(1.0, 2.0).size(), 1u);
}

TEST(DatabaseTest, PruneDropsOldEntries) {
  Database db(10, 1);
  for (int i = 0; i < 5; ++i) {
    db.ApplyUpdate(static_cast<ItemId>(i), static_cast<double>(i));
  }
  EXPECT_EQ(db.journal_size(), 5u);
  db.PruneJournalBefore(2.0);
  EXPECT_EQ(db.journal_size(), 2u);
  // Item state is unaffected by pruning.
  EXPECT_EQ(db.Get(0).version, 1u);
}

// Feeds 200 updates cycling over 16 items, one every 0.5 s, so each item
// carries a dozen versions across the pruned and the kept range.
void FeedCycle(Database* db) {
  for (int i = 1; i <= 200; ++i) {
    db->ApplyUpdate(static_cast<ItemId>(i % 16), 0.5 * static_cast<double>(i));
  }
}

TEST(DatabaseTest, HistoricalReadsFromThePruneCutoffMatchAnUnprunedTwin) {
  Database pruned(16, 3), twin(16, 3);
  FeedCycle(&pruned);
  FeedCycle(&twin);
  // The cutoff is an update instant: the update at 40.0 itself is dropped,
  // and a read as of 40.0 needs only the updates after it.
  constexpr SimTime kCutoff = 40.0;
  pruned.PruneJournalBefore(kCutoff);
  EXPECT_EQ(pruned.journal_size(), 120u);
  EXPECT_EQ(twin.journal_size(), 200u);
  for (const SimTime t : {kCutoff, 40.25, 75.0, 100.0}) {
    for (ItemId id = 0; id < 16; ++id) {
      EXPECT_EQ(pruned.VersionAt(id, t), twin.VersionAt(id, t))
          << "id " << id << " t " << t;
      EXPECT_EQ(pruned.ValueAt(id, t), twin.ValueAt(id, t));
    }
  }
  const std::vector<UpdatedItem> kept = pruned.JournalIn(kCutoff, 100.0);
  const std::vector<UpdatedItem> full = twin.JournalIn(kCutoff, 100.0);
  ASSERT_EQ(kept.size(), full.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].id, full[i].id);
    EXPECT_EQ(kept[i].updated_at, full[i].updated_at);
  }
}

TEST(DatabaseDeathTest, HistoricalReadBeforeThePruneCutoffAsserts) {
  Database db(16, 3);
  FeedCycle(&db);
  db.PruneJournalBefore(40.0);
  // The log no longer holds the update at 40.0, so neither read could be
  // answered; debug builds refuse both.
  EXPECT_DEBUG_DEATH(db.VersionAt(0, 39.5), "before the prune");
  EXPECT_DEBUG_DEATH(db.JournalIn(39.5, 100.0), "before the prune");
}

TEST(DatabaseTest, ObserverSeesEveryUpdate) {
  Database db(10, 1);
  std::vector<ItemId> seen;
  db.SetUpdateObserver([&](ItemId id, SimTime) { seen.push_back(id); });
  db.ApplyUpdate(7, 1.0);
  db.ApplyUpdate(8, 2.0);
  EXPECT_EQ(seen, (std::vector<ItemId>{7, 8}));
  db.SetUpdateObserver(nullptr);
  db.ApplyUpdate(9, 3.0);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(UpdateGeneratorTest, UniformRateProducesExpectedVolume) {
  Simulator sim;
  Database db(100, 1);
  UpdateGenerator gen(&sim, &db, /*mu_per_item=*/0.01, /*seed=*/5);
  EXPECT_DOUBLE_EQ(gen.total_rate(), 1.0);
  ASSERT_TRUE(gen.Start().ok());
  gen.GenerateIntervalUpdates(10000.0, /*inclusive=*/true);
  gen.Stop();
  // ~10000 updates expected; allow 5 sigma.
  EXPECT_NEAR(static_cast<double>(gen.updates_generated()), 10000.0, 500.0);
  EXPECT_EQ(gen.updates_generated(), db.total_updates());
}

TEST(UpdateGeneratorTest, ZeroRateGeneratesNothing) {
  Simulator sim;
  Database db(10, 1);
  UpdateGenerator gen(&sim, &db, 0.0, 5);
  ASSERT_TRUE(gen.Start().ok());
  gen.GenerateIntervalUpdates(1000.0, /*inclusive=*/true);
  gen.Stop();
  EXPECT_EQ(gen.updates_generated(), 0u);
  EXPECT_EQ(db.total_updates(), 0u);
}

TEST(UpdateGeneratorTest, DoubleStartFails) {
  Simulator sim;
  Database db(10, 1);
  UpdateGenerator gen(&sim, &db, 0.1, 5);
  ASSERT_TRUE(gen.Start().ok());
  EXPECT_EQ(gen.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(UpdateGeneratorTest, StopHaltsGeneration) {
  Simulator sim;
  Database db(10, 1);
  UpdateGenerator gen(&sim, &db, 1.0, 5);
  ASSERT_TRUE(gen.Start().ok());
  gen.GenerateIntervalUpdates(10.0, /*inclusive=*/true);
  gen.Stop();
  const uint64_t at_stop = gen.updates_generated();
  EXPECT_GT(at_stop, 0u);
  // A pump after Stop() applies nothing, however far it reaches.
  gen.GenerateIntervalUpdates(100.0, /*inclusive=*/true);
  EXPECT_EQ(gen.updates_generated(), at_stop);
  EXPECT_EQ(db.total_updates(), at_stop);
}

TEST(UpdateGeneratorTest, WeightedRatesSkewItemChoice) {
  Simulator sim;
  Database db(2, 1);
  UpdateGenerator gen(&sim, &db, std::vector<double>{0.9, 0.1}, 5);
  EXPECT_DOUBLE_EQ(gen.total_rate(), 1.0);
  EXPECT_DOUBLE_EQ(gen.RateOf(0), 0.9);
  ASSERT_TRUE(gen.Start().ok());
  gen.GenerateIntervalUpdates(20000.0, /*inclusive=*/true);
  gen.Stop();
  const double frac0 = static_cast<double>(db.Get(0).version) /
                       static_cast<double>(db.total_updates());
  EXPECT_NEAR(frac0, 0.9, 0.02);
}

TEST(UpdateGeneratorTest, ZipfRatesPreserveTotalAndSkew) {
  const auto rates = ZipfUpdateRates(100, 0.01, 1.0);
  double total = 0.0;
  for (double r : rates) total += r;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(rates[0], rates[99]);
}

}  // namespace
}  // namespace mobicache
