// Unit tests for the cell server: broadcast schedule, delivery sink, uplink
// accounting, journal pruning, and the report observer hook.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/at.h"
#include "core/nocache.h"
#include "core/ts.h"
#include "db/database.h"
#include "net/channel.h"
#include "net/delivery.h"
#include "server/server.h"
#include "sim/simulator.h"

namespace mobicache {
namespace {

TEST(ServerTest, ScheduleAndObserver) {
  Database db(100, 1);
  Simulator sim;
  Channel channel(&sim, 1e4);
  ServerConfig config;
  config.latency = 10.0;
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), nullptr,
                config);
  std::vector<double> report_times;
  server.SetReportObserver([&](const Report& r) {
    report_times.push_back(ReportTimestamp(r));
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());  // double start
  sim.RunUntil(35.0);
  server.Stop();
  EXPECT_EQ(report_times, (std::vector<double>{0.0, 10.0, 20.0, 30.0}));
  EXPECT_EQ(server.stats().reports_broadcast, 4u);
}

TEST(ServerTest, ReportBitsTracked) {
  Database db(100, 1);
  Simulator sim;
  Channel channel(&sim, 1e4);
  ServerConfig config;
  config.latency = 10.0;
  config.sizes.id_bits = 7;
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), nullptr,
                config);
  ASSERT_TRUE(server.Start().ok());
  sim.ScheduleAt(5.0, [&] { db.ApplyUpdate(3, 5.0); });
  sim.ScheduleAt(6.0, [&] { db.ApplyUpdate(4, 6.0); });
  sim.RunUntil(15.0);
  server.Stop();
  // Report at T=10 carried two 7-bit ids.
  EXPECT_DOUBLE_EQ(server.stats().report_bits.max(), 14.0);
  EXPECT_EQ(channel.stats().report_bits, 14u);
}

TEST(ServerTest, AccountUplinkQueryChargesChannel) {
  Database db(100, 1);
  Simulator sim;
  Channel channel(&sim, 1e4);
  ServerConfig config;
  config.latency = 10.0;
  config.sizes.bq = 100;
  config.sizes.ba = 900;
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), nullptr,
                config);
  UplinkQueryInfo info;
  info.id = 5;
  info.time = 2.0;
  server.AccountUplinkQuery(info);
  EXPECT_EQ(channel.stats().uplink_query_bits, 100u);
  EXPECT_EQ(channel.stats().downlink_answer_bits, 900u);
  EXPECT_EQ(server.stats().uplink_queries_served, 1u);
}

TEST(ServerTest, PrunesJournalBeyondStrategyHorizon) {
  Database db(100, 1);
  Simulator sim;
  Channel channel(&sim, 1e4);
  ServerConfig config;
  config.latency = 10.0;
  config.journal_slack_intervals = 1;
  config.journal_prune_period_intervals = 1;  // prune every interval
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), nullptr,
                config);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 20; ++i) {
    const double t = static_cast<double>(i) * 5.0 + 1.0;
    sim.ScheduleAt(t, [&db, t] {
      db.ApplyUpdate(static_cast<ItemId>(t), t);
    });
  }
  sim.RunUntil(100.0);
  server.Stop();
  // Horizon = L + slack = 20 s: at T=100 only entries newer than ~80 stay.
  EXPECT_LE(db.journal_size(), 6u);
}

TEST(ServerTest, BatchedPruneKeepsJournalBounded) {
  // With the default amortized prune (every k intervals) the journal may
  // retain up to k intervals of extra history past the horizon, but no
  // more: memory stays bounded for arbitrarily long runs.
  Database db(100, 1);
  Simulator sim;
  Channel channel(&sim, 1e4);
  ServerConfig config;
  config.latency = 10.0;
  config.journal_slack_intervals = 1;
  ASSERT_GE(config.journal_prune_period_intervals, 1u);
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), nullptr,
                config);
  ASSERT_TRUE(server.Start().ok());
  // Two updates per interval over 200 intervals.
  for (int i = 0; i < 400; ++i) {
    const double t = static_cast<double>(i) * 5.0 + 1.0;
    sim.ScheduleAt(t, [&db, t] {
      db.ApplyUpdate(static_cast<ItemId>(static_cast<uint64_t>(t) % 100), t);
    });
  }
  sim.RunUntil(2000.0);
  server.Stop();
  // Bound: horizon (2 intervals) + prune period intervals of slop, at two
  // updates per interval, plus the entries since the last prune fired.
  const uint64_t bound =
      2 * (2 + config.journal_prune_period_intervals + 1);
  EXPECT_LE(db.journal_size(), bound);
}

TEST(ServerTest, JitteredDeliveryArrivesAfterNominalTime) {
  Database db(100, 1);
  Simulator sim;
  Channel channel(&sim, 1e4);
  DeliveryModel delivery(DeliveryModelKind::kCsmaJitter, 1.0, 3);
  ServerConfig config;
  config.latency = 10.0;
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), &delivery,
                config);
  std::vector<Server::ReportDelivery> deliveries;
  server.SetDeliverySink([&](Server::ReportDelivery d) {
    EXPECT_EQ(sim.Now(), d.done);
    deliveries.push_back(std::move(d));
  });
  ASSERT_TRUE(server.Start().ok());
  sim.RunUntil(105.0);
  server.Stop();
  // Every report arrives despite the jitter (mean 1 s << L), after its
  // nominal instant, and costs a listener at least its airtime.
  ASSERT_EQ(deliveries.size(), 11u);
  EXPECT_EQ(server.deliveries_completed(), 11u);
  for (size_t i = 0; i < deliveries.size(); ++i) {
    const double nominal = 10.0 * static_cast<double>(i);
    EXPECT_EQ(ReportTimestamp(*deliveries[i].report), nominal);
    EXPECT_GT(deliveries[i].done, nominal);
    EXPECT_GT(deliveries[i].listen_seconds, 0.0);
  }
}

TEST(ServerTest, NullStrategyBroadcastsZeroBits) {
  Database db(100, 1);
  Simulator sim;
  Channel channel(&sim, 1e4);
  ServerConfig config;
  config.latency = 10.0;
  Server server(&sim, &db, &channel, std::make_unique<NullServerStrategy>(),
                nullptr, config);
  ASSERT_TRUE(server.Start().ok());
  sim.RunUntil(50.0);
  server.Stop();
  EXPECT_EQ(channel.stats().report_bits, 0u);
  EXPECT_EQ(server.stats().reports_broadcast, 6u);
}

}  // namespace
}  // namespace mobicache
