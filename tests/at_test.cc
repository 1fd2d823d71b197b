#include <gtest/gtest.h>

#include "core/at.h"
#include "db/database.h"

namespace mobicache {
namespace {

constexpr double kL = 10.0;

AtReport Build(AtServerStrategy& server, uint64_t interval) {
  Report report;
  server.BuildReportInto(kL * static_cast<double>(interval), interval,
                         &report);
  return std::get<AtReport>(report);
}

TEST(AtServerTest, ReportsLastIntervalOnly) {
  Database db(100, 1);
  AtServerStrategy server(&db, kL);
  db.ApplyUpdate(1, 5.0);
  db.ApplyUpdate(2, 15.0);
  const AtReport r2 = Build(server, 2);  // window (10, 20]
  ASSERT_EQ(r2.ids.size(), 1u);
  EXPECT_EQ(r2.ids[0], 2u);
  EXPECT_DOUBLE_EQ(r2.timestamp, 20.0);
  EXPECT_DOUBLE_EQ(server.JournalHorizonSeconds(), kL);
}

TEST(AtServerTest, DuplicateUpdatesAppearOnce) {
  Database db(100, 1);
  AtServerStrategy server(&db, kL);
  db.ApplyUpdate(3, 11.0);
  db.ApplyUpdate(3, 12.0);
  db.ApplyUpdate(3, 13.0);
  EXPECT_EQ(Build(server, 2).ids.size(), 1u);
}

TEST(AtClientTest, FirstReportClearsCache) {
  ClientCache cache;
  cache.Put(1, 11, 0.0);
  AtClientManager client;
  AtReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  EXPECT_EQ(client.OnReport(r1, &cache), 1u);
  EXPECT_TRUE(cache.empty());
  EXPECT_TRUE(client.HasValidBaseline());
}

TEST(AtClientTest, ErasesMentionedItems) {
  ClientCache cache;
  AtClientManager client;
  AtReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  client.OnUplinkFetch(1, 10, 11.0, &cache);
  client.OnUplinkFetch(2, 20, 11.0, &cache);

  AtReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  r2.ids = {1};
  EXPECT_EQ(client.OnReport(r2, &cache), 1u);
  EXPECT_FALSE(cache.Contains(1));
  ASSERT_TRUE(cache.Contains(2));
  EXPECT_DOUBLE_EQ(cache.Peek(2)->timestamp, 20.0);
}

TEST(AtClientTest, AnyMissedReportDropsWholeCache) {
  ClientCache cache;
  AtClientManager client;
  AtReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  client.OnUplinkFetch(1, 10, 11.0, &cache);
  client.OnUplinkFetch(2, 20, 11.0, &cache);

  // Missed report 2; hears report 3.
  AtReport r3;
  r3.interval = 3;
  r3.timestamp = 30.0;
  EXPECT_EQ(client.OnReport(r3, &cache), 2u);
  EXPECT_TRUE(cache.empty());
  EXPECT_EQ(client.last_interval_heard(), 3u);
}

TEST(AtClientTest, ConsecutiveReportsKeepCache) {
  ClientCache cache;
  AtClientManager client;
  for (uint64_t i = 1; i <= 5; ++i) {
    AtReport r;
    r.interval = i;
    r.timestamp = kL * static_cast<double>(i);
    client.OnReport(r, &cache);
    if (i == 1) client.OnUplinkFetch(9, 90, r.timestamp + 1.0, &cache);
  }
  EXPECT_TRUE(cache.Contains(9));
  EXPECT_DOUBLE_EQ(cache.Peek(9)->timestamp, 50.0);
}

TEST(AtClientTest, MentionOfUncachedItemIsHarmless) {
  ClientCache cache;
  AtClientManager client;
  AtReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  client.OnReport(r1, &cache);
  AtReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  r2.ids = {55, 66};
  EXPECT_EQ(client.OnReport(r2, &cache), 0u);
}

}  // namespace
}  // namespace mobicache
