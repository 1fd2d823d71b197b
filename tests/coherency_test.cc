#include <cmath>

#include <gtest/gtest.h>

#include "core/coherency.h"
#include "db/database.h"

namespace mobicache {
namespace {

constexpr double kL = 10.0;

AtReport Build(ServerStrategy& server, uint64_t interval) {
  Report report;
  server.BuildReportInto(kL * static_cast<double>(interval), interval,
                         &report);
  return std::get<AtReport>(report);
}

TEST(NumericWalkTest, StepsAreBoundedAndDeterministic) {
  NumericWalk walk(5, 2.0);
  for (uint64_t r = 1; r <= 100; ++r) {
    const double step = walk.Step(3, r);
    EXPECT_LE(std::fabs(step), 2.0);
    EXPECT_DOUBLE_EQ(step, NumericWalk(5, 2.0).Step(3, r));
  }
}

TEST(NumericWalkTest, AdvanceMatchesValue) {
  NumericWalk walk(5, 1.0);
  const double direct = walk.Value(7, 20);
  double incremental = walk.Value(7, 5);
  incremental = walk.Advance(7, 5, 20, incremental);
  EXPECT_NEAR(incremental, direct, 1e-12);
  EXPECT_DOUBLE_EQ(walk.Value(7, 0), 0.0);
}

TEST(QuasiAtServerTest, UnfetchedItemsAreNeverReported) {
  Database db(50, 1);
  QuasiAtServerStrategy server(&db, kL, /*alpha_intervals=*/2);
  db.ApplyUpdate(4, 5.0);
  EXPECT_TRUE(Build(server, 1).ids.empty());  // nobody holds a copy
}

TEST(QuasiAtServerTest, DefersUntilObligationMatures) {
  Database db(50, 1);
  QuasiAtServerStrategy server(&db, kL, /*alpha_intervals=*/3);
  EXPECT_DOUBLE_EQ(server.alpha(), 30.0);

  // A client fetches item 4 just after report 1 (t ~ 10.5).
  UplinkQueryInfo fetch;
  fetch.id = 4;
  fetch.time = 10.5;
  server.OnUplinkQuery(fetch);

  db.ApplyUpdate(4, 12.0);
  // Reports 2 and 3 come before the obligation matures (eligible at 1+3=4).
  EXPECT_TRUE(Build(server, 2).ids.empty());
  EXPECT_TRUE(Build(server, 3).ids.empty());
  EXPECT_GE(server.deferrals(), 2u);
  // Report 4: matured -> reported.
  const AtReport r4 = Build(server, 4);
  ASSERT_EQ(r4.ids.size(), 1u);
  EXPECT_EQ(r4.ids[0], 4u);
  // Afterwards the slate is clean: no copies outstanding.
  db.ApplyUpdate(4, 45.0);
  EXPECT_TRUE(Build(server, 5).ids.empty());
}

TEST(QuasiAtServerTest, AlphaOneBehavesLikePlainAtForHeldItems) {
  Database db(50, 1);
  QuasiAtServerStrategy server(&db, kL, 1);
  UplinkQueryInfo fetch;
  fetch.id = 4;
  fetch.time = 0.5;
  server.OnUplinkQuery(fetch);
  db.ApplyUpdate(4, 5.0);
  const AtReport r1 = Build(server, 1);
  ASSERT_EQ(r1.ids.size(), 1u);
}

TEST(QuasiAtServerTest, UnchangedItemsNotReported) {
  Database db(50, 1);
  QuasiAtServerStrategy server(&db, kL, 2);
  UplinkQueryInfo fetch;
  fetch.id = 4;
  fetch.time = 0.5;
  server.OnUplinkQuery(fetch);
  EXPECT_TRUE(Build(server, 1).ids.empty());
  EXPECT_TRUE(Build(server, 2).ids.empty());
  EXPECT_TRUE(Build(server, 3).ids.empty());
}

TEST(QuasiAtClientTest, AgedCopyCannotAnswer) {
  QuasiAtClientManager client(/*alpha=*/20.0, /*latency=*/kL);
  ClientCache cache;
  AtReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  client.OnUplinkFetch(4, 44, 10.5, &cache);
  EXPECT_TRUE(client.CanAnswerFromCache(4, 20.0, cache));
  EXPECT_TRUE(client.CanAnswerFromCache(4, 30.5, cache));
  EXPECT_FALSE(client.CanAnswerFromCache(4, 31.0, cache));
  EXPECT_FALSE(client.CanAnswerFromCache(5, 11.0, cache));  // not cached
}

TEST(QuasiAtClientTest, AgingRestampsOnlyOldCopies) {
  QuasiAtClientManager client(/*alpha=*/20.0, /*latency=*/kL);
  ClientCache cache;
  AtReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  client.OnUplinkFetch(4, 44, 10.5, &cache);

  AtReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  client.OnReport(r2, &cache);
  // Copy is 9.5 s old (would still be under alpha at the next report):
  // keeps its original stamp.
  EXPECT_DOUBLE_EQ(cache.Peek(4)->timestamp, 10.5);

  AtReport r3;
  r3.interval = 3;
  r3.timestamp = 30.0;
  client.OnReport(r3, &cache);
  // 19.5 s old: would exceed alpha = 20 before T=40, and it survived this
  // report -> revalidated now.
  EXPECT_DOUBLE_EQ(cache.Peek(4)->timestamp, 30.0);
}

TEST(QuasiAtClientTest, MissedReportStillDropsEverything) {
  QuasiAtClientManager client(20.0, kL);
  ClientCache cache;
  AtReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  client.OnUplinkFetch(4, 44, 10.5, &cache);
  AtReport r3;
  r3.interval = 3;
  r3.timestamp = 30.0;
  EXPECT_EQ(client.OnReport(r3, &cache), 1u);
  EXPECT_TRUE(cache.empty());
}

TEST(ArithmeticAtServerTest, SuppressesSmallDrift) {
  Database db(50, 1);
  NumericWalk walk(9, 1.0);  // steps bounded by 1
  // Tolerance large enough that a single step can never exceed it.
  ArithmeticAtServerStrategy server(&db, &walk, kL, /*epsilon=*/5.0);
  db.ApplyUpdate(4, 5.0);
  EXPECT_TRUE(Build(server, 1).ids.empty());
  EXPECT_EQ(server.suppressions(), 1u);
}

TEST(ArithmeticAtServerTest, ReportsWhenDriftExceedsEpsilon) {
  Database db(50, 1);
  NumericWalk walk(9, 1.0);
  ArithmeticAtServerStrategy server(&db, &walk, kL, /*epsilon=*/0.5);
  // Drive updates until cumulative drift necessarily crosses 0.5.
  bool reported = false;
  double t = 1.0;
  for (uint64_t i = 1; i <= 200 && !reported; ++i, t += kL) {
    db.ApplyUpdate(4, t);
    const AtReport r =
        Build(server, static_cast<uint64_t>(t / kL) + 1);
    reported = !r.ids.empty();
  }
  EXPECT_TRUE(reported);
}

TEST(ArithmeticAtServerTest, ZeroEpsilonReportsEveryChange) {
  Database db(50, 1);
  NumericWalk walk(9, 1.0);
  ArithmeticAtServerStrategy server(&db, &walk, kL, 0.0);
  db.ApplyUpdate(4, 5.0);
  EXPECT_EQ(Build(server, 1).ids.size(), 1u);
  EXPECT_EQ(server.suppressions(), 0u);
}

TEST(ArithmeticAtServerTest, TracksNumericValueLazily) {
  Database db(50, 1);
  NumericWalk walk(9, 1.0);
  ArithmeticAtServerStrategy server(&db, &walk, kL, 1.0);
  db.ApplyUpdate(4, 1.0);
  db.ApplyUpdate(4, 2.0);
  EXPECT_NEAR(server.CurrentNumeric(4), walk.Value(4, 2), 1e-12);
}

}  // namespace
}  // namespace mobicache
