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
  DeliveryModel ideal(DeliveryModelKind::kIdealPeriodic, 0.0, 7);
  ServerConfig config;
  config.latency = 10.0;
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), &ideal,
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
  DeliveryModel ideal(DeliveryModelKind::kIdealPeriodic, 0.0, 7);
  ServerConfig config;
  config.latency = 10.0;
  config.sizes.id_bits = 7;
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), &ideal,
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
  DeliveryModel ideal(DeliveryModelKind::kIdealPeriodic, 0.0, 7);
  ServerConfig config;
  config.latency = 10.0;
  config.sizes.bq = 100;
  config.sizes.ba = 900;
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), &ideal,
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
  DeliveryModel ideal(DeliveryModelKind::kIdealPeriodic, 0.0, 7);
  ServerConfig config;
  config.latency = 10.0;
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), &ideal,
                config);
  // AT itself keeps no raw log: the floor arms one, as an audit does.
  server.SetRetentionFloor(JournalRetention::kFullWindow);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 20; ++i) {
    const double t = static_cast<double>(i) * 5.0 + 1.0;
    sim.ScheduleAt(t, [&db, t] {
      db.ApplyUpdate(static_cast<ItemId>(t), t);
    });
  }
  sim.RunUntil(100.0);
  server.Stop();
  // Horizon = L + 2L of slack = 30 s: at T=100 only the entries after 70
  // stay (71, 76, ..., 96).
  EXPECT_EQ(db.journal_size(), 6u);
}

TEST(ServerTest, PrunesJournalAtEveryInterval) {
  // Two updates per interval over 200 intervals. Every broadcast prunes to
  // the strategy's horizon plus two intervals of slack, so as each report
  // completes the log holds exactly the updates after T - 3L: memory stays
  // bounded for arbitrarily long runs, with no prune skipped.
  Database db(100, 1);
  Simulator sim;
  Channel channel(&sim, 1e4);
  DeliveryModel ideal(DeliveryModelKind::kIdealPeriodic, 0.0, 7);
  ServerConfig config;
  config.latency = 10.0;
  Server server(&sim, &db, &channel,
                std::make_unique<AtServerStrategy>(&db, 10.0), &ideal,
                config);
  std::vector<double> update_times;
  for (int i = 0; i < 400; ++i) {
    const double t = static_cast<double>(i) * 5.0 + 1.0;
    update_times.push_back(t);
    sim.ScheduleAt(t, [&db, t] {
      db.ApplyUpdate(static_cast<ItemId>(static_cast<uint64_t>(t) % 100), t);
    });
  }
  server.SetRetentionFloor(JournalRetention::kFullWindow);
  uint64_t reports = 0;
  server.SetReportObserver([&](const Report& r) {
    const double cutoff = ReportTimestamp(r) - 30.0;
    size_t want = 0;
    for (double t : update_times) {
      want += t > cutoff && t <= sim.Now() ? 1 : 0;
    }
    EXPECT_EQ(db.journal_size(), want) << "report at " << ReportTimestamp(r);
    ++reports;
  });
  ASSERT_TRUE(server.Start().ok());
  sim.RunUntil(2000.0);
  server.Stop();
  // Reports at 0, 10, ..., 1990 completed; the one at 2000 pruned to 1970
  // and is still on the air.
  EXPECT_EQ(reports, 200u);
  EXPECT_EQ(db.journal_size(), 6u);
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
  DeliveryModel ideal(DeliveryModelKind::kIdealPeriodic, 0.0, 7);
  ServerConfig config;
  config.latency = 10.0;
  Server server(&sim, &db, &channel, std::make_unique<NullServerStrategy>(),
                &ideal, config);
  ASSERT_TRUE(server.Start().ok());
  sim.RunUntil(50.0);
  server.Stop();
  EXPECT_EQ(channel.stats().report_bits, 0u);
  EXPECT_EQ(server.stats().reports_broadcast, 6u);
}

}  // namespace
}  // namespace mobicache
