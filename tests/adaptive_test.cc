#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "db/database.h"
#include "util/bits.h"

namespace mobicache {
namespace {

constexpr double kL = 10.0;

MessageSizes Sizes() {
  MessageSizes s;
  s.bq = 128;
  s.ba = 1024;
  s.bT = 512;
  s.id_bits = 10;
  return s;
}

AdaptiveTsOptions Options() {
  AdaptiveTsOptions o;
  o.initial_window = 4;
  o.max_window = 32;
  o.eval_period = 4;
  o.step = 2;
  o.feedback = AdaptiveFeedback::kMethod1;
  return o;
}

AdaptiveTsReport Build(AdaptiveTsServerStrategy& server, uint64_t interval) {
  Report report;
  server.BuildReportInto(kL * static_cast<double>(interval), interval,
                         &report);
  return std::get<AdaptiveTsReport>(report);
}

TEST(AdaptiveServerTest, ReportsWithinPerItemWindow) {
  Database db(100, 1);
  AdaptiveTsOptions opts = Options();
  opts.eval_period = 100;  // no adaptation within this test
  AdaptiveTsServerStrategy server(&db, kL, Sizes(), opts);
  EXPECT_EQ(server.WindowOf(7), 0u);  // cold until someone asks for it
  UplinkQueryInfo q;
  q.id = 7;
  q.time = 1.0;
  server.OnUplinkQuery(q);
  EXPECT_EQ(server.WindowOf(7), 4u);  // activated at the initial window
  db.ApplyUpdate(7, 5.0);
  // Within window at T=10 and T=40 (window 4 intervals = 40s).
  EXPECT_EQ(Build(server, 1).entries.size(), 1u);
  EXPECT_EQ(Build(server, 4).entries.size(), 1u);
  // Beyond the window at T=50.
  EXPECT_TRUE(Build(server, 5).entries.empty());
}

TEST(AdaptiveServerTest, UplinkExtraBitsChargePiggyback) {
  Database db(100, 1);
  AdaptiveTsServerStrategy server(&db, kL, Sizes(), Options());
  UplinkQueryInfo info;
  info.id = 1;
  info.time = 12.0;
  info.local_hit_times = {10.0, 11.0, 11.5};
  EXPECT_EQ(server.UplinkExtraBits(info), 3u * 512u);

  AdaptiveTsOptions m2 = Options();
  m2.feedback = AdaptiveFeedback::kMethod2;
  AdaptiveTsServerStrategy server2(&db, kL, Sizes(), m2);
  EXPECT_EQ(server2.UplinkExtraBits(info), 0u);
}

TEST(AdaptiveServerTest, ShrinksWindowOfChangingAbandonedItem) {
  Database db(100, 1);
  AdaptiveTsOptions opts = Options();
  AdaptiveTsServerStrategy server(&db, kL, Sizes(), opts);
  // Item 3 was queried once (activating it at the initial window), then
  // abandoned while it keeps changing: pure report overhead -> window
  // shrinks to 0 and the controller is compacted away.
  UplinkQueryInfo q;
  q.id = 3;
  q.time = 1.0;
  server.OnUplinkQuery(q);
  EXPECT_EQ(server.WindowOf(3), opts.initial_window);
  double t = 1.0;
  uint64_t interval = 1;
  for (int period = 0; period < 6; ++period) {
    for (uint64_t i = 0; i < opts.eval_period; ++i, ++interval) {
      db.ApplyUpdate(3, t);
      t = kL * static_cast<double>(interval);
      Build(server, interval);
    }
  }
  EXPECT_EQ(server.WindowOf(3), 0u);  // back to cold: pure overhead
}

TEST(AdaptiveServerTest, UnqueriedItemsAreNeverReported) {
  Database db(100, 1);
  AdaptiveTsServerStrategy server(&db, kL, Sizes(), Options());
  db.ApplyUpdate(3, 5.0);
  const AdaptiveTsReport r = Build(server, 1);
  EXPECT_TRUE(r.entries.empty());
  EXPECT_TRUE(r.window_changes.empty());
}

TEST(AdaptiveServerTest, GrowsWindowForSleepyQueriedStableItem) {
  Database db(100, 1);
  AdaptiveTsOptions opts = Options();
  AdaptiveTsServerStrategy server(&db, kL, Sizes(), opts);
  // Item 5 never changes but is queried uplink by sleepy clients that keep
  // missing it (AHR = 0 while MHR = 1) -> window should grow.
  uint64_t interval = 1;
  for (int period = 0; period < 6; ++period) {
    for (uint64_t i = 0; i < opts.eval_period; ++i, ++interval) {
      UplinkQueryInfo q;
      q.id = 5;
      q.time = kL * static_cast<double>(interval) - 5.0;
      server.OnUplinkQuery(q);
      Build(server, interval);
    }
  }
  EXPECT_GT(server.WindowOf(5), opts.initial_window);
}

TEST(AdaptiveServerTest, OverrideTableTravelsWithEveryReport) {
  Database db(100, 1);
  AdaptiveTsOptions opts = Options();
  opts.eval_period = 100;  // keep the window stable during the check
  AdaptiveTsServerStrategy server(&db, kL, Sizes(), opts);
  UplinkQueryInfo q;
  q.id = 3;
  q.time = 1.0;
  server.OnUplinkQuery(q);
  // The activated item's window rides along in every report, even long
  // after activation, so waking sleepers always re-learn it.
  for (uint64_t i = 1; i < 20; ++i) {
    const AdaptiveTsReport r = Build(server, i);
    ASSERT_EQ(r.window_changes.size(), 1u);
    EXPECT_EQ(r.window_changes[0].id, 3u);
    EXPECT_EQ(r.window_changes[0].window_intervals, server.WindowOf(3));
  }
}

TEST(AdaptiveClientTest, LearnsWindowsFromAnnouncements) {
  AdaptiveTsClientManager client(kL, Options());
  EXPECT_EQ(client.KnownWindowOf(9), 0u);  // cold by default
  AdaptiveTsReport r;
  r.interval = 1;
  r.timestamp = 10.0;
  r.window_changes = {{9, 16}};
  ClientCache cache;
  client.OnReport(Report(r), &cache);
  EXPECT_EQ(client.KnownWindowOf(9), 16u);
  // The table is authoritative: an item absent from the next report's table
  // is back at the cold window.
  AdaptiveTsReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  client.OnReport(Report(r2), &cache);
  EXPECT_EQ(client.KnownWindowOf(9), 0u);
}

TEST(AdaptiveClientTest, PerItemStalenessRule) {
  AdaptiveTsClientManager client(kL, Options());
  ClientCache cache;
  AdaptiveTsReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  r1.window_changes = {{2, 4}};  // item 2 has a 4-interval (40 s) window
  client.OnReport(Report(r1), &cache);
  client.OnUplinkFetch(2, 22, 12.0, &cache);

  // Report at T=50: copy stamped 12.0 >= 50 - 40 -> valid, revalidated.
  AdaptiveTsReport r5;
  r5.interval = 5;
  r5.timestamp = 50.0;
  r5.window_changes = {{2, 4}};
  EXPECT_EQ(client.OnReport(Report(r5), &cache), 0u);
  EXPECT_DOUBLE_EQ(cache.Peek(2)->timestamp, 50.0);

  // Pretend the copy is old again and too stale for its window.
  cache.SetTimestamp(2, 5.0);
  AdaptiveTsReport r6;
  r6.interval = 6;
  r6.timestamp = 60.0;
  r6.window_changes = {{2, 4}};
  EXPECT_EQ(client.OnReport(Report(r6), &cache), 1u);
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_EQ(client.staleness_drops(), 1u);
}

TEST(AdaptiveClientTest, MentionedNewerIsPurged) {
  AdaptiveTsClientManager client(kL, Options());
  ClientCache cache;
  client.OnUplinkFetch(2, 22, 12.0, &cache);
  AdaptiveTsReport r;
  r.interval = 2;
  r.timestamp = 20.0;
  r.entries = {{2, 15.0}};
  EXPECT_EQ(client.OnReport(Report(r), &cache), 1u);
  EXPECT_TRUE(cache.empty());
}

TEST(AdaptiveClientTest, ZeroWindowItemsExpireEachInterval) {
  AdaptiveTsClientManager client(kL, Options());
  ClientCache cache;
  AdaptiveTsReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  r1.window_changes = {{2, 0}};
  client.OnReport(Report(r1), &cache);
  client.OnUplinkFetch(2, 22, 10.5, &cache);
  AdaptiveTsReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  r2.window_changes = {{2, 0}};  // override table repeats in every report
  EXPECT_EQ(client.OnReport(Report(r2), &cache), 1u);
  EXPECT_FALSE(cache.Contains(2));
}

TEST(AdaptiveClientTest, PiggybackFlow) {
  AdaptiveTsClientManager client(kL, Options());
  client.OnLocalHit(4, 1.0);
  client.OnLocalHit(4, 2.0);
  client.OnLocalHit(5, 3.0);
  EXPECT_EQ(client.TakePiggyback(4), (std::vector<SimTime>{1.0, 2.0}));
  EXPECT_TRUE(client.TakePiggyback(4).empty());  // cleared
  EXPECT_EQ(client.TakePiggyback(5).size(), 1u);

  AdaptiveTsOptions m2 = Options();
  m2.feedback = AdaptiveFeedback::kMethod2;
  AdaptiveTsClientManager client2(kL, m2);
  client2.OnLocalHit(4, 1.0);
  EXPECT_TRUE(client2.TakePiggyback(4).empty());  // method 2: no piggyback
}

TEST(AdaptiveServerTest, Method2ShrinksAbandonedChangingItem) {
  Database db(100, 1);
  AdaptiveTsOptions opts = Options();
  opts.feedback = AdaptiveFeedback::kMethod2;
  AdaptiveTsServerStrategy server(&db, kL, Sizes(), opts);
  UplinkQueryInfo q;
  q.id = 3;
  q.time = 1.0;
  server.OnUplinkQuery(q);
  uint64_t interval = 1;
  for (int period = 0; period < 6; ++period) {
    for (uint64_t i = 0; i < opts.eval_period; ++i, ++interval) {
      db.ApplyUpdate(3, kL * static_cast<double>(interval) - 5.0);
      Build(server, interval);
    }
  }
  EXPECT_EQ(server.WindowOf(3), 0u);
}

TEST(AdaptiveServerTest, WindowBitsCoverMaxWindow) {
  Database db(100, 1);
  AdaptiveTsServerStrategy server(&db, kL, Sizes(), Options());
  const AdaptiveTsReport r = Build(server, 1);
  EXPECT_GE(r.window_bits, CeilLog2(Options().max_window + 1));
}

}  // namespace
}  // namespace mobicache
