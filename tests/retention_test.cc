// Strategy-driven journal retention (db/database.h, server/server.cc):
// every ServerStrategy declares how much update history the server-side
// journal must keep, Server::Start arms the database with the declared
// class (raised by the cell's retention floor when an answer observer needs
// historical ground truth), and the database's per-class representations
// must stay observationally equivalent where the contract says they are:
//
//  * twin databases fed the identical update stream under kFullWindow and
//    kDirtySet retention answer every window query (UpdatedIn /
//    UpdatedIdsIn) exactly as a brute-force oracle over the live slab
//    does, over any sequence of windows whose lo never decreases, on the
//    dirty set's bitwise path and on its time-reading fallback alike, and
//    a warm AT cell answers every steady-state window bitwise;
//  * window queries are sets: two updates of one id at one SimTime report
//    the id once, in every representation;
//  * an AT or grouped-AT cell runs bit-identically on the dirty set and on
//    the raw journal an answer observer forces;
//  * kNone keeps no journal at all — zero entries, zero bytes, forever —
//    and answers every window query empty;
//  * journal_bytes_peak is a true high-water mark: monotone under appends
//    and unaffected by pruning.

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/at.h"
#include "counting_new.h"
#include "db/database.h"
#include "db/update_generator.h"
#include "exp/megacell.h"
#include "sim/simulator.h"
#include "window_oracle.h"

namespace mobicache {
namespace {

CellConfig BaseConfig(StrategyKind kind) {
  CellConfig config;
  config.model.n = 400;
  config.model.mu = 0.002;
  config.model.lambda = 0.05;
  config.model.s = 0.6;
  config.model.L = 10.0;
  config.model.k = 8;
  config.strategy = kind;
  config.num_units = 8;
  config.hotspot_size = 25;
  config.seed = 777;
  return config;
}

/// gtest prints a parameter as its raw bytes, and ctest names carry that
/// dump: the zero fields fill what would be padding, so every byte is set
/// and the names are the same in every build.
struct DeclarationCase {
  StrategyKind kind;
  JournalRetention want;
  uint8_t zero[3] = {};
};
static_assert(sizeof(DeclarationCase) == 8, "no padding bytes");

class RetentionDeclarationTest
    : public ::testing::TestWithParam<DeclarationCase> {};

TEST_P(RetentionDeclarationTest, ServerStartArmsDeclaredClass) {
  const DeclarationCase param = GetParam();
  MegaCell cell({BaseConfig(param.kind)});
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(2, 20).ok());
  EXPECT_EQ(cell.db()->retention(), param.want)
      << JournalRetentionName(cell.db()->retention());
}

// An answer observer audits against historical ground truth (ValueAt), so
// whatever the strategy declares, the run's retention floor raises the
// class to the raw log.
TEST_P(RetentionDeclarationTest, AnswerObserverRaisesToFullWindow) {
  MegaCell cell({BaseConfig(GetParam().kind)});
  ASSERT_TRUE(cell.Build().ok());
  for (MobileUnit* unit : cell.units()) {
    unit->SetAnswerObserver([](ItemId, uint64_t, SimTime, bool) {});
  }
  ASSERT_TRUE(cell.Run(2, 20).ok());
  EXPECT_EQ(cell.db()->retention(), JournalRetention::kFullWindow)
      << JournalRetentionName(cell.db()->retention());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, RetentionDeclarationTest,
    ::testing::Values(
        DeclarationCase{StrategyKind::kNoCache, JournalRetention::kNone},
        DeclarationCase{StrategyKind::kSig, JournalRetention::kDirtySet},
        DeclarationCase{StrategyKind::kHybridSig,
                        JournalRetention::kDirtySet},
        DeclarationCase{StrategyKind::kTs, JournalRetention::kDirtySet},
        DeclarationCase{StrategyKind::kAt, JournalRetention::kDirtySet},
        DeclarationCase{StrategyKind::kGroupedAt,
                        JournalRetention::kDirtySet},
        DeclarationCase{StrategyKind::kAdaptiveTs,
                        JournalRetention::kFullWindow},
        // The report-less baselines never read their update stream back.
        DeclarationCase{StrategyKind::kIdeal, JournalRetention::kNone},
        DeclarationCase{StrategyKind::kStateful, JournalRetention::kNone},
        DeclarationCase{StrategyKind::kAsync, JournalRetention::kNone}),
    [](const ::testing::TestParamInfo<DeclarationCase>& param_info) {
      std::string name(StrategyName(param_info.param.kind));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RetentionFloorTest, FloorRaisesDeclaredClassButNeverLowersIt) {
  // A dirty-set strategy with a kFullWindow floor (the answer-observer
  // case) must end up with raw retention...
  {
    MegaCell cell({BaseConfig(StrategyKind::kSig)});
    ASSERT_TRUE(cell.Build().ok());
    cell.server()->SetRetentionFloor(JournalRetention::kFullWindow);
    ASSERT_TRUE(cell.Run(2, 20).ok());
    EXPECT_EQ(cell.db()->retention(), JournalRetention::kFullWindow);
  }
  // ...while a kNone floor under a full-window strategy changes nothing.
  {
    MegaCell cell({BaseConfig(StrategyKind::kAdaptiveTs)});
    ASSERT_TRUE(cell.Build().ok());
    cell.server()->SetRetentionFloor(JournalRetention::kNone);
    ASSERT_TRUE(cell.Run(2, 20).ok());
    EXPECT_EQ(cell.db()->retention(), JournalRetention::kFullWindow);
  }
}

// ---------------------------------------------------------------------------
// Twin databases: identical update stream, different retention class.

constexpr uint64_t kItems = 64;
constexpr double kBucket = 10.0;

// A few thousand updates across ~12 buckets with heavy per-item repetition,
// applied in batches that straddle bucket boundaries on purpose.
void FeedUpdates(Database* db) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<uint32_t> id_dist(0, kItems - 1);
  std::vector<ItemId> ids;
  std::vector<SimTime> times;
  double t = 0.0;
  for (int batch = 0; batch < 40; ++batch) {
    ids.clear();
    times.clear();
    const size_t count = 17 + static_cast<size_t>(batch) * 3;
    for (size_t i = 0; i < count; ++i) {
      t += 0.17;
      ids.push_back(id_dist(rng));
      times.push_back(t);
    }
    db->ApplyUpdateBatch(ids.data(), times.data(), ids.size());
  }
}

TEST(RetentionTwinTest, NoneRetentionKeepsNoJournal) {
  Database none(kItems, /*seed=*/5);
  none.SetRetention(JournalRetention::kNone);
  FeedUpdates(&none);

  EXPECT_EQ(none.journal_size(), 0u);
  EXPECT_EQ(none.journal_bytes(), 0u);
  EXPECT_EQ(none.journal_bytes_peak(), 0u);
  std::vector<UpdatedItem> items{UpdatedItem{}};
  none.UpdatedIn(0.0, 1e9, &items);
  EXPECT_TRUE(items.empty());
  std::vector<ItemId> ids{7};
  none.UpdatedIdsIn(0.0, 1e9, &ids);
  EXPECT_TRUE(ids.empty());

  // The hot slab is unaffected by retention: live state matches a journaling
  // twin fed the same stream.
  Database full(kItems, /*seed=*/5);
  FeedUpdates(&full);
  for (ItemId id = 0; id < kItems; ++id) {
    EXPECT_EQ(none.VersionOf(id), full.VersionOf(id));
    EXPECT_EQ(none.LastUpdateOf(id), full.LastUpdateOf(id));
  }
}

TEST(RetentionTwinTest, JournalBytesPeakIsAHighWaterMark) {
  Database db(kItems, /*seed=*/11);
  FeedUpdates(&db);

  const uint64_t bytes_before = db.journal_bytes();
  const uint64_t peak_before = db.journal_bytes_peak();
  ASSERT_GT(bytes_before, 0u);
  EXPECT_GE(peak_before, bytes_before);

  // Pruning shrinks the live footprint but must not touch the peak.
  db.PruneJournalBefore(200.0);
  EXPECT_LT(db.journal_bytes(), bytes_before);
  EXPECT_EQ(db.journal_bytes_peak(), peak_before);

  // Appending after the prune grows bytes again; the peak only moves once
  // the live footprint exceeds it. The batch continues past the journal's
  // tail (FeedUpdates ends near 513.4 s), as ApplyUpdateBatch requires.
  std::vector<ItemId> ids{1, 2, 3};
  std::vector<SimTime> times{600.0, 600.5, 601.0};
  db.ApplyUpdateBatch(ids.data(), times.data(), ids.size());
  EXPECT_GE(db.journal_bytes_peak(), db.journal_bytes());
  EXPECT_EQ(db.journal_bytes_peak(), peak_before);
}

// ---------------------------------------------------------------------------
// Set semantics: a same-id, same-time pair is one change.

TEST(RetentionSetSemanticsTest, TiedUpdatesOfOneIdAreReportedOnce) {
  for (JournalRetention retention :
       {JournalRetention::kFullWindow, JournalRetention::kDirtySet}) {
    SCOPED_TRACE(JournalRetentionName(retention));
    Database db(/*n=*/16, /*seed=*/3);
    db.SetRetention(retention);
    db.ApplyUpdate(5, 0.5);
    db.ApplyUpdate(5, 0.5);
    db.ApplyUpdate(7, 0.6);
    std::vector<UpdatedItem> got;
    for (int pass = 0; pass < 2; ++pass) {
      // The first pass answers from the bits; the second repeats the
      // window after an update past its hi, so the time-reading walk runs.
      db.UpdatedIn(0.0, 1.0, &got);
      ASSERT_EQ(got.size(), 2u) << "pass " << pass;
      EXPECT_EQ(got[0].id, 5u);
      EXPECT_EQ(got[0].updated_at, 0.5);
      EXPECT_EQ(got[1].id, 7u);
      EXPECT_EQ(got[1].updated_at, 0.6);
      db.ApplyUpdate(9, 1.5);
    }
    EXPECT_EQ(db.VersionOf(5), 2u);
  }
}

// ---------------------------------------------------------------------------
// Twin databases: kFullWindow and kDirtySet, under a seeded stream of
// updates and monotone-lo window queries, checked against the oracle.

SimTime StepUlps(SimTime x, int ulps) {
  const SimTime toward = ulps < 0 ? -std::numeric_limits<SimTime>::infinity()
                                  : std::numeric_limits<SimTime>::infinity();
  for (int i = 0; i < std::abs(ulps); ++i) x = std::nextafter(x, toward);
  return x;
}

std::vector<ItemId> IdsOf(const std::vector<UpdatedItem>& items) {
  std::vector<ItemId> ids;
  for (const UpdatedItem& item : items) ids.push_back(item.id);
  return ids;
}

::testing::AssertionResult SameItems(const std::vector<UpdatedItem>& a,
                                     const std::vector<UpdatedItem>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].updated_at != b[i].updated_at) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << a[i].id << "@" << a[i].updated_at
             << " vs " << b[i].id << "@" << b[i].updated_at;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RetentionTripleTest, BothClassesMatchTheOracleOverMonotoneWindows) {
  constexpr uint64_t kTripleItems = 1024;
  constexpr double kTick = 0.25;  // update-time lattice; windows share it
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto uniform = [&rng](uint64_t bound) { return rng() % bound; };

    Database full(kTripleItems, seed);
    Database dirty(kTripleItems, seed);
    Database* dbs[] = {&full, &dirty};
    const JournalRetention classes[] = {JournalRetention::kFullWindow,
                                        JournalRetention::kDirtySet};
    uint64_t observed = 0;
    for (int d = 0; d < 2; ++d) {
      dbs[d]->SetRetention(classes[d]);
      // Odd seeds run the observed apply loop.
      if (seed % 2 == 1) {
        dbs[d]->SetUpdateObserver([&observed](ItemId, SimTime) { ++observed; });
      }
    }

    SimTime clock = 0.0;
    SimTime prev_lo = -kBucket;
    SimTime prev_hi = 0.0;
    std::vector<ItemId> ids;
    std::vector<SimTime> times;
    std::vector<UpdatedItem> scratch[2];
    std::vector<ItemId> id_scratch[2];
    uint64_t dirty_queries = 0;
    for (int step = 0; step < 160; ++step) {
      // Updates up to ~2.5 intervals ahead; a zero count is a quiet
      // stretch, a burst lists more items than the dirty-set query buffers
      // per block, and tied times (same id or not) are common.
      ids.clear();
      times.clear();
      const uint64_t count = uniform(5) == 0   ? 0
                             : uniform(8) == 0 ? 200 + uniform(400)
                                               : uniform(60);
      for (uint64_t i = 0; i < count; ++i) {
        const bool tie = i > 0 && uniform(6) == 0;
        if (!tie) clock += kTick * static_cast<double>(1 + uniform(4));
        const ItemId id = tie && uniform(2) == 0
                              ? ids.back()
                              : static_cast<ItemId>(uniform(kTripleItems));
        ids.push_back(id);
        times.push_back(clock);
      }
      if (count > 0) {
        for (Database* db : dbs) {
          if (uniform(2) == 0) {
            db->ApplyUpdateBatch(ids.data(), times.data(), ids.size());
          } else {
            for (size_t i = 0; i < ids.size(); ++i) {
              db->ApplyUpdate(ids[i], times[i]);
            }
          }
        }
      }

      const int queries = 1 + static_cast<int>(uniform(3));
      for (int q = 0; q < queries; ++q) {
        const int ulps = static_cast<int>(uniform(5)) - 2;
        SimTime lo = StepUlps(prev_hi, ulps);
        SimTime hi = clock;
        switch (uniform(6)) {
          case 0:  // the server's window: previous tick to now
            break;
          case 1:  // the same window again
            lo = prev_lo;
            hi = prev_hi;
            break;
          case 2:  // wider than one interval, reaching past the clock
            lo = StepUlps(prev_hi - 2.5 * kBucket, ulps);
            hi = StepUlps(clock + kBucket, ulps);
            break;
          case 3:  // empty or inverted
            hi = uniform(2) == 0 ? lo : lo - kTick;
            break;
          case 4:  // an update exactly at lo
            if (!times.empty()) lo = times[uniform(times.size())];
            break;
          case 5:  // an update exactly at hi, later ones past it
            if (!times.empty()) hi = times[uniform(times.size())];
            break;
        }
        lo = std::max(lo, prev_lo);
        SCOPED_TRACE("step " + std::to_string(step) + " window (" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
        const std::vector<UpdatedItem> want = WindowOracle(full, lo, hi);
        // Both query forms, in a rotating order: whichever runs first sees
        // the window fresh, the other repeats it.
        const int first = static_cast<int>(uniform(2));
        for (int d = 0; d < 2; ++d) {
          for (int f = 0; f < 2; ++f) {
            if ((first + f) % 2 == 0) {
              dbs[d]->UpdatedIn(lo, hi, &scratch[d]);
              ASSERT_TRUE(SameItems(want, scratch[d]))
                  << JournalRetentionName(classes[d]);
            } else {
              dbs[d]->UpdatedIdsIn(lo, hi, &id_scratch[d]);
              ASSERT_EQ(id_scratch[d], IdsOf(want))
                  << JournalRetentionName(classes[d]);
            }
          }
        }
        if (lo < hi) dirty_queries += 2;
        prev_lo = lo;
        prev_hi = std::max(lo, hi);
      }
      // The server's pruning trails every window.
      if (step % 8 == 7) full.PruneJournalBefore(prev_lo - kBucket);
    }
    for (ItemId id = 0; id < kTripleItems; ++id) {
      ASSERT_EQ(dirty.LastUpdateOf(id), full.LastUpdateOf(id));
    }
    EXPECT_EQ(dirty.journal_size(), 0u);
    // Two n-bit sets: the fresh and the older bits.
    EXPECT_EQ(dirty.journal_bytes_peak(), 2 * ((kTripleItems + 7) / 8));
    // The seeded windows reach both the bitwise path and the fallback.
    EXPECT_GT(dirty.dirty_bitwise_queries(), 0u);
    EXPECT_LT(dirty.dirty_bitwise_queries(), dirty_queries);
    // Both classes run the same engine over the same queries.
    EXPECT_EQ(full.dirty_bitwise_queries(), dirty.dirty_bitwise_queries());
    if (seed % 2 == 1) {
      EXPECT_EQ(observed, 2 * full.total_updates());
    }
  }
}

// ---------------------------------------------------------------------------
// The dirty set's bitwise conditions at their boundaries: each scripted
// window is checked on both twins against the oracle, and against the path
// (bitwise or time-reading fallback) its recorded times call for.

class DirtyBoundaryTest : public ::testing::Test {
 protected:
  DirtyBoundaryTest() : full_(kItems, 7), dirty_(kItems, 7) {
    dirty_.SetRetention(JournalRetention::kDirtySet);
  }

  void Apply(ItemId id, SimTime t) {
    full_.ApplyUpdate(id, t);
    dirty_.ApplyUpdate(id, t);
  }

  // Queries (lo, hi] on both twins and returns whether the dirty set
  // answered from the bits alone.
  bool Query(SimTime lo, SimTime hi) {
    const std::vector<UpdatedItem> want = WindowOracle(dirty_, lo, hi);
    const uint64_t bitwise = dirty_.dirty_bitwise_queries();
    std::vector<UpdatedItem> full_got;
    full_.UpdatedIn(lo, hi, &full_got);
    EXPECT_TRUE(SameItems(want, full_got));
    std::vector<ItemId> got;
    dirty_.UpdatedIdsIn(lo, hi, &got);
    EXPECT_EQ(got, IdsOf(want));
    return dirty_.dirty_bitwise_queries() > bitwise;
  }

  Database full_;
  Database dirty_;
};

TEST_F(DirtyBoundaryTest, UpdateAtThePreviousHiFallsBack) {
  Apply(1, 3.0);
  EXPECT_TRUE(Query(0.0, 10.0));
  // Stamped exactly at the previous hi, applied after that query: outside
  // the next window (10, 20], which only the time read can tell.
  Apply(2, 10.0);
  Apply(3, 15.0);
  EXPECT_FALSE(Query(10.0, 20.0));
  Apply(4, 25.0);
  EXPECT_TRUE(Query(20.0, 30.0));
}

TEST_F(DirtyBoundaryTest, LoOneUlpEitherSideOfThePreviousHi) {
  const SimTime below = std::nextafter(10.0, 0.0);
  Apply(1, 3.0);
  EXPECT_TRUE(Query(0.0, 10.0));
  Apply(2, 10.0);
  Apply(3, 15.0);
  // One ulp below the previous hi: the update at 10 is inside.
  EXPECT_TRUE(Query(below, 20.0));
  Apply(4, 20.0);
  Apply(5, std::nextafter(20.0, 30.0));
  Apply(6, 25.0);
  // One ulp above: the update one ulp past 20 sits exactly at lo.
  EXPECT_FALSE(Query(std::nextafter(20.0, 30.0), 30.0));
  Apply(7, 35.0);
  EXPECT_TRUE(Query(30.0, 40.0));
}

TEST_F(DirtyBoundaryTest, RepeatedWindowAnswersBitwise) {
  Apply(1, 2.0);
  Apply(2, 4.0);
  EXPECT_TRUE(Query(0.0, 10.0));
  EXPECT_TRUE(Query(0.0, 10.0));
  EXPECT_TRUE(Query(0.0, 10.0));
  Apply(3, 12.0);
  EXPECT_TRUE(Query(10.0, 20.0));
}

TEST_F(DirtyBoundaryTest, WindowAfterUnqueriedIntervalsFallsBack) {
  EXPECT_TRUE(Query(0.0, 10.0));
  // Three intervals pass unqueried; only the last one's updates are in
  // the window.
  Apply(1, 12.0);
  Apply(2, 23.0);
  Apply(1, 27.0);
  Apply(3, 34.0);
  Apply(4, 38.0);
  EXPECT_FALSE(Query(30.0, 40.0));
  Apply(5, 45.0);
  EXPECT_TRUE(Query(40.0, 50.0));
}

TEST_F(DirtyBoundaryTest, SteadyStateWindowAskedTwiceAnswersBitwise) {
  Apply(1, 2.0);
  EXPECT_TRUE(Query(0.0, 10.0));
  Apply(2, 11.0);
  Apply(3, 19.0);
  // One broadcast window asked twice: the repeat reads fresh | older.
  EXPECT_TRUE(Query(10.0, 20.0));
  EXPECT_TRUE(Query(10.0, 20.0));
}

TEST_F(DirtyBoundaryTest, UpdatePastHiFallsBack) {
  Apply(1, 5.0);
  Apply(2, 15.0);
  // The later update lies past hi: the fallback keeps its bit for the
  // next window.
  EXPECT_FALSE(Query(0.0, 10.0));
  EXPECT_FALSE(Query(10.0, 20.0));
  Apply(3, 25.0);
  EXPECT_TRUE(Query(20.0, 30.0));
}

TEST(DirtyStormTest, WarmAtCellAnswersEverySteadyStateQueryBitwise) {
  // The storm workload's shape at a test's size: AT on n items, ~15% of
  // them updated per interval, drained strictly before each broadcast in
  // the server's order, every interval built as the server builds it.
  constexpr uint64_t kN = 1 << 16;
  constexpr double kL = 10.0;
  Simulator sim;
  Database db(kN, /*seed=*/3);
  db.SetRetention(JournalRetention::kDirtySet);
  AtServerStrategy at(&db, kL);
  UpdateGenerator gen(&sim, &db, 0.015, /*seed=*/9);
  ASSERT_TRUE(gen.Start().ok());
  Report report;
  uint64_t queries = 0;
  uint64_t bitwise_at_warm = 0;
  for (uint64_t i = 1; i <= 40; ++i) {
    const SimTime now = kL * static_cast<double>(i);
    gen.GenerateIntervalUpdates(now, /*inclusive=*/false);
    if (i == 3) bitwise_at_warm = db.dirty_bitwise_queries();
    at.BuildReportInto(now, i, &report);
    if (i >= 3) ++queries;
    EXPECT_GT(std::get<AtReport>(report).ids.size(), kN / 10);
  }
  EXPECT_EQ(db.dirty_bitwise_queries() - bitwise_at_warm, queries);
}

// ---------------------------------------------------------------------------
// End to end: an answer observer forces the raw journal; nothing else moves.

void ExpectSameCell(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.queries_answered, b.queries_answered);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.avg_report_bits, b.avg_report_bits);
  EXPECT_EQ(a.mean_answer_latency, b.mean_answer_latency);
  EXPECT_EQ(a.reports_broadcast, b.reports_broadcast);
  EXPECT_EQ(a.reports_heard, b.reports_heard);
  EXPECT_EQ(a.reports_missed, b.reports_missed);
  EXPECT_EQ(a.quiet_report_intervals, b.quiet_report_intervals);
  EXPECT_EQ(a.quiet_skipped_intervals, b.quiet_skipped_intervals);
  EXPECT_EQ(a.measured_sleep_fraction, b.measured_sleep_fraction);
  EXPECT_EQ(a.items_invalidated, b.items_invalidated);
  EXPECT_EQ(a.listen_seconds_total, b.listen_seconds_total);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.effectiveness, b.effectiveness);
  EXPECT_EQ(a.channel.report_bits, b.channel.report_bits);
  EXPECT_EQ(a.channel.uplink_query_bits, b.channel.uplink_query_bits);
  EXPECT_EQ(a.channel.downlink_answer_bits, b.channel.downlink_answer_bits);
  EXPECT_EQ(a.channel.report_count, b.channel.report_count);
  EXPECT_EQ(a.channel.uplink_query_count, b.channel.uplink_query_count);
  EXPECT_EQ(a.channel.downlink_answer_count, b.channel.downlink_answer_count);
  EXPECT_EQ(a.channel.busy_seconds, b.channel.busy_seconds);
}

TEST(RetentionEndToEndTest, AnswerObserverForcesJournalWithoutMovingResults) {
  for (StrategyKind kind : {StrategyKind::kAt, StrategyKind::kGroupedAt}) {
    SCOPED_TRACE(StrategyName(kind));
    CellConfig config = BaseConfig(kind);
    config.model.s = 0.85;  // quiet intervals exercise elision
    config.num_units = 4;

    MegaCell plain({config});
    ASSERT_TRUE(plain.Build().ok());
    ASSERT_TRUE(plain.Run(5, 200).ok());
    EXPECT_EQ(plain.db()->retention(), JournalRetention::kDirtySet);

    MegaCell audited({config});
    ASSERT_TRUE(audited.Build().ok());
    uint64_t hits = 0;
    uint64_t stale = 0;
    const Database* db = audited.db();
    for (MobileUnit* unit : audited.units()) {
      unit->SetAnswerObserver(
          [&hits, &stale, db](ItemId id, uint64_t value, SimTime ts, bool hit) {
            if (!hit) return;
            ++hits;
            if (value != db->ValueAt(id, ts)) ++stale;
          });
    }
    ASSERT_TRUE(audited.Run(5, 200).ok());
    EXPECT_EQ(audited.db()->retention(), JournalRetention::kFullWindow);

    ExpectSameCell(plain.result(), audited.result());
    EXPECT_GT(plain.result().quiet_report_intervals, 0u);
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(stale, 0u);
  }
}

// ---------------------------------------------------------------------------
// Allocation: a warm AT report build on the dirty set allocates nothing.

TEST(RetentionAllocationTest, WarmAtBuildOnDirtySetDoesNotAllocate) {
  constexpr uint64_t kN = 4096;
  constexpr double kL = 10.0;
  constexpr int kIntervals = 40;
  Database db(kN, /*seed=*/21);
  db.SetRetention(JournalRetention::kDirtySet);
  AtServerStrategy at(&db, kL);

  // Every interval's updates are staged up front; the first touches every
  // item once, so the report scratch reaches its largest size while warm.
  std::mt19937_64 rng(5);
  std::vector<std::vector<ItemId>> ids(kIntervals);
  std::vector<std::vector<SimTime>> times(kIntervals);
  for (int i = 0; i < kIntervals; ++i) {
    const uint64_t count = i == 0 ? kN : 200 + rng() % 800;
    for (uint64_t j = 0; j < count; ++j) {
      ids[i].push_back(i == 0 ? static_cast<ItemId>(j)
                              : static_cast<ItemId>(rng() % kN));
      times[i].push_back(kL * (i + static_cast<double>(j + 1) /
                                       static_cast<double>(count + 1)));
    }
  }

  Report report;
  size_t allocations = 0;
  for (int i = 0; i < kIntervals; ++i) {
    const size_t before = g_new_calls.load();
    db.ApplyUpdateBatch(ids[i].data(), times[i].data(), ids[i].size());
    const SimTime now = kL * (i + 1);
    at.BuildReportInto(now, static_cast<uint64_t>(i + 1), &report);
    if (i >= 2) allocations += g_new_calls.load() - before;
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(db.journal_size(), 0u);
}

TEST(RetentionTest, ClassNamesAreStable) {
  EXPECT_STREQ(JournalRetentionName(JournalRetention::kNone), "none");
  EXPECT_STREQ(JournalRetentionName(JournalRetention::kDirtySet), "dirty");
  EXPECT_STREQ(JournalRetentionName(JournalRetention::kFullWindow), "full");
}

}  // namespace
}  // namespace mobicache
