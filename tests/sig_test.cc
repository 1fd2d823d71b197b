#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "sig/signature.h"
#include "util/random.h"

namespace mobicache {
namespace {

SignatureParams SmallParams() {
  SignatureParams p;
  p.m = 600;
  p.f = 5;
  p.g = 16;
  p.k_threshold = 1.25;
  return p;
}

TEST(SigMathTest, MembershipProbability) {
  EXPECT_DOUBLE_EQ(SubsetMembershipProbability(1), 0.5);
  EXPECT_DOUBLE_EQ(SubsetMembershipProbability(9), 0.1);
}

TEST(SigMathTest, ValidItemMismatchProbabilityApproximation) {
  // p ~= (1/(f+1)) (1 - 1/e) for moderate f and large g.
  const double p = ValidItemMismatchProbability(10, 32);
  EXPECT_NEAR(p, (1.0 / 11.0) * (1.0 - std::exp(-1.0)), 0.01);
  // Increasing g increases p slightly (fewer masked collisions).
  EXPECT_LT(ValidItemMismatchProbability(10, 1),
            ValidItemMismatchProbability(10, 32));
}

TEST(SigMathTest, FalseAlarmBoundShrinksWithM) {
  const double loose = FalseAlarmProbabilityBound(100, 10, 16, 2.0);
  const double tight = FalseAlarmProbabilityBound(2000, 10, 16, 2.0);
  EXPECT_GT(loose, tight);
  EXPECT_GT(tight, 0.0);
  EXPECT_LT(loose, 1.0);
}

TEST(SigMathTest, SizingFormulas) {
  // Eq. 24: m = 6 (f+1)(ln(1/delta) + ln n).
  const uint32_t m = PaperRequiredSignatures(1000, 10, 0.05);
  const double expected = 6.0 * 11.0 * (std::log(20.0) + std::log(1000.0));
  EXPECT_NEAR(static_cast<double>(m), expected, 1.0);
  // The general bound with K = 2 is within a constant of the paper bound.
  const uint32_t general = RequiredSignatures(1000, 10, 16, 0.05, 2.0);
  EXPECT_GT(general, m / 3);
  EXPECT_LT(general, m * 3);
  // More items or smaller delta need more signatures.
  EXPECT_GT(PaperRequiredSignatures(1000000, 10, 0.05), m);
  EXPECT_GT(PaperRequiredSignatures(1000, 10, 0.001), m);
}

TEST(SignatureFamilyTest, SubsetsAreDeterministicAndSorted) {
  SignatureFamily fam(1000, SmallParams(), 77);
  const auto a = fam.ComputeSubsetsOf(123);
  const auto b = fam.ComputeSubsetsOf(123);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (uint32_t j : a) EXPECT_LT(j, SmallParams().m);
}

TEST(SignatureFamilyTest, MembershipFrequencyMatchesProbability) {
  SignatureFamily fam(2000, SmallParams(), 77);
  uint64_t total = 0;
  for (ItemId i = 0; i < 2000; ++i) total += fam.ComputeSubsetsOf(i).size();
  const double avg = static_cast<double>(total) / 2000.0;
  const double expected = 600.0 / 6.0;  // m / (f+1)
  EXPECT_NEAR(avg, expected, expected * 0.05);
}

TEST(SignatureFamilyTest, ContainsAgreesWithSubsetsOf) {
  SignatureFamily fam(100, SmallParams(), 77);
  for (ItemId i = 0; i < 20; ++i) {
    const auto subsets = fam.ComputeSubsetsOf(i);
    for (uint32_t j : subsets) EXPECT_TRUE(fam.Contains(j, i));
    // Spot-check some non-members.
    uint32_t misses = 0;
    for (uint32_t j = 0; j < 50 && misses < 5; ++j) {
      if (!std::binary_search(subsets.begin(), subsets.end(), j)) {
        EXPECT_FALSE(fam.Contains(j, i));
        ++misses;
      }
    }
  }
}

// A membership row is built the first time its item is diagnosed (or
// read), once per item, and holds exactly ComputeSubsetsOf's set.
TEST(SignatureFamilyTest, MembershipRowsMatchComputeSubsetsOf) {
  constexpr uint64_t kN = 400;
  SignatureFamily fam(kN, SmallParams(), 77);
  EXPECT_EQ(fam.row_words(), (SmallParams().m + 63) / 64);
  Database db(kN, 5);
  ServerSignatureState server(&fam, &db);
  const std::vector<ItemId> interest{3, 7, 11, 250};
  ClientSignatureView view(&fam, interest);
  view.DiagnoseAndAdopt(server.Combined(), interest);  // adopts, no count
  EXPECT_EQ(fam.row_count(), 0u);
  db.ApplyUpdate(7, 1.0);
  server.OnItemChanged(7);
  view.DiagnoseAndAdopt(server.Combined(), interest);
  EXPECT_EQ(fam.row_count(), interest.size());

  for (int pass = 0; pass < 2; ++pass) {
    for (ItemId id = 0; id < kN; ++id) {
      const uint64_t* row = fam.MembershipRow(id);
      std::vector<uint32_t> from_row;
      for (uint32_t j = 0; j < SmallParams().m; ++j) {
        if ((row[j / 64] >> (j % 64)) & 1) from_row.push_back(j);
      }
      EXPECT_EQ(from_row, fam.ComputeSubsetsOf(id)) << "item " << id;
      // Bits past m in the last word stay clear.
      for (uint32_t j = SmallParams().m; j < 64 * fam.row_words(); ++j) {
        EXPECT_EQ((row[j / 64] >> (j % 64)) & 1, 0u) << "item " << id;
      }
    }
    EXPECT_EQ(fam.row_count(), kN);
  }
}

// The server's combined signatures, folded through the family's subset
// lists, equal the XOR over ComputeSubsetsOf's sets, before and after
// updates and on a second state built over the same (already listed)
// family.
TEST(ServerSignatureStateTest, ListFoldMatchesComputeSubsetsOf) {
  constexpr uint64_t kN = 300;
  Database db(kN, 4);
  SignatureFamily fam(kN, SmallParams(), 77);
  auto reference = [&] {
    std::vector<uint64_t> combined(SmallParams().m, 0);
    for (ItemId id = 0; id < kN; ++id) {
      const uint64_t sig = fam.ItemSignature(db.ValueOf(id));
      for (uint32_t j : fam.ComputeSubsetsOf(id)) combined[j] ^= sig;
    }
    return combined;
  };
  ServerSignatureState server(&fam, &db);
  EXPECT_EQ(server.Combined(), reference());
  for (ItemId id = 0; id < kN; id += 7) {
    db.ApplyUpdate(id, 1.0);
    server.OnItemChanged(id);
  }
  EXPECT_EQ(server.Combined(), reference());
  ServerSignatureState again(&fam, &db);
  EXPECT_EQ(again.Combined(), reference());
}

// A report key names one broadcast: reusing the current key with different
// content breaks the interning contract, which Debug builds assert.
TEST(ClientSignatureViewDeathTest, KeyHitWithDifferentContentAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "asserts are compiled out";
#else
  Database db(100, 3);
  SignatureFamily fam(100, SmallParams(), 77);
  ServerSignatureState server(&fam, &db);
  ClientSignatureView view(&fam, {1, 2, 3});
  view.DiagnoseAndAdopt(server.Combined(), /*report_key=*/7, {1, 2, 3});
  std::vector<uint64_t> altered = server.Combined();
  altered[0] ^= 1;
  EXPECT_DEATH(view.DiagnoseAndAdopt(altered, /*report_key=*/7, {1, 2, 3}),
               "");
#endif
}

TEST(SignatureFamilyTest, ItemSignatureRespectsBitWidth) {
  SignatureParams p = SmallParams();
  p.g = 8;
  SignatureFamily fam(100, p, 77);
  for (uint64_t v = 0; v < 1000; ++v) {
    EXPECT_LT(fam.ItemSignature(v * 0x9E3779B9ULL), 256u);
  }
  p.g = 64;
  SignatureFamily fam64(100, p, 77);
  // With 64 bits some signature should exceed 32-bit range.
  bool large_seen = false;
  for (uint64_t v = 0; v < 100; ++v) {
    if (fam64.ItemSignature(v) > 0xFFFFFFFFULL) large_seen = true;
  }
  EXPECT_TRUE(large_seen);
}

TEST(SignatureFamilyTest, ReportBitsIsMTimesG) {
  SignatureFamily fam(100, SmallParams(), 77);
  EXPECT_EQ(fam.ReportBits(), 600u * 16u);
}

TEST(ServerSignatureStateTest, IncrementalMatchesRebuild) {
  Database db(500, 9);
  SignatureFamily fam(500, SmallParams(), 77);
  ServerSignatureState state(&fam, &db);

  // Apply updates, folding each in.
  for (int round = 0; round < 50; ++round) {
    const ItemId id = static_cast<ItemId>((round * 37) % 500);
    db.ApplyUpdate(id, static_cast<double>(round + 1));
    state.OnItemChanged(id);
  }
  // A state rebuilt from scratch must agree.
  ServerSignatureState fresh(&fam, &db);
  EXPECT_EQ(state.Combined(), fresh.Combined());
}

TEST(ServerSignatureStateTest, RepeatedFoldIsIdempotent) {
  Database db(100, 9);
  SignatureFamily fam(100, SmallParams(), 77);
  ServerSignatureState state(&fam, &db);
  db.ApplyUpdate(5, 1.0);
  state.OnItemChanged(5);
  const auto once = state.Combined();
  state.OnItemChanged(5);  // no further change
  EXPECT_EQ(state.Combined(), once);
}

TEST(ClientSignatureViewTest, FirstDiagnosisDropsEverythingAndAdopts) {
  Database db(200, 9);
  SignatureFamily fam(200, SmallParams(), 77);
  ServerSignatureState server(&fam, &db);
  std::vector<ItemId> interest{1, 2, 3, 4, 5};
  ClientSignatureView view(&fam, interest);
  EXPECT_FALSE(view.has_baseline());
  const auto invalid = view.DiagnoseAndAdopt(server.Combined(), {1, 2, 3});
  EXPECT_EQ(invalid.size(), 3u);
  EXPECT_TRUE(view.has_baseline());
}

TEST(ClientSignatureViewTest, DetectsChangedCachedItems) {
  Database db(200, 9);
  SignatureFamily fam(200, SmallParams(), 77);
  ServerSignatureState server(&fam, &db);
  std::vector<ItemId> interest{1, 2, 3, 4, 5};
  ClientSignatureView view(&fam, interest);
  view.DiagnoseAndAdopt(server.Combined(), {});  // adopt clean baseline

  db.ApplyUpdate(3, 1.0);
  server.OnItemChanged(3);
  const auto invalid = view.DiagnoseAndAdopt(server.Combined(), {1, 2, 3});
  // Item 3 must be diagnosed; 1 and 2 are usually clean (false alarms are
  // possible but rare at these parameters — assert 3 is present).
  EXPECT_NE(std::find(invalid.begin(), invalid.end(), 3), invalid.end());
}

TEST(ClientSignatureViewTest, NoChangesMeansNoInvalidations) {
  Database db(200, 9);
  SignatureFamily fam(200, SmallParams(), 77);
  ServerSignatureState server(&fam, &db);
  ClientSignatureView view(&fam, {1, 2, 3});
  view.DiagnoseAndAdopt(server.Combined(), {});
  const auto invalid = view.DiagnoseAndAdopt(server.Combined(), {1, 2, 3});
  EXPECT_TRUE(invalid.empty());
}

TEST(ClientSignatureViewTest, FalseAlarmRateIsLow) {
  // Many rounds of unrelated-item churn: cached items of this client should
  // rarely be invalidated.
  Database db(2000, 9);
  SignatureParams params;
  params.f = 10;
  params.g = 16;
  params.k_threshold = 1.25;
  params.m = PaperRequiredSignatures(2000, params.f, 0.05);
  SignatureFamily fam(2000, params, 77);
  ServerSignatureState server(&fam, &db);
  std::vector<ItemId> interest{10, 20, 30, 40, 50};
  ClientSignatureView view(&fam, interest);
  view.DiagnoseAndAdopt(server.Combined(), {});

  uint64_t false_alarms = 0, opportunities = 0;
  double t = 1.0;
  for (int round = 0; round < 200; ++round) {
    // f unrelated items change per round.
    for (uint32_t i = 0; i < params.f; ++i) {
      const ItemId id = static_cast<ItemId>(100 + ((round * 31 + i * 7) %
                                                   1800));
      db.ApplyUpdate(id, t);
      server.OnItemChanged(id);
      t += 1.0;
    }
    const auto invalid = view.DiagnoseAndAdopt(server.Combined(), interest);
    false_alarms += invalid.size();
    opportunities += interest.size();
  }
  const double rate =
      static_cast<double>(false_alarms) / static_cast<double>(opportunities);
  EXPECT_LT(rate, 0.05);
}

TEST(ClientSignatureViewTest, PerItemThresholdDetectsAndSparesReliably) {
  Database db(500, 9);
  SignatureParams params = SmallParams();
  params.per_item_threshold = true;
  params.gamma = 0.8;
  params.m = PaperRequiredSignatures(500, params.f, 0.05);
  SignatureFamily fam(500, params, 77);
  ServerSignatureState server(&fam, &db);
  std::vector<ItemId> interest{1, 2, 3, 4, 5};
  ClientSignatureView view(&fam, interest);
  view.DiagnoseAndAdopt(server.Combined(), {});

  uint64_t missed = 0, false_alarms = 0;
  double t = 1.0;
  for (int round = 0; round < 100; ++round) {
    // One cached item changes plus f-1 unrelated ones.
    db.ApplyUpdate(2, t);
    server.OnItemChanged(2);
    t += 1.0;
    for (uint32_t i = 0; i + 1 < params.f; ++i) {
      const ItemId id = static_cast<ItemId>(100 + (round * 17 + i) % 350);
      db.ApplyUpdate(id, t);
      server.OnItemChanged(id);
      t += 1.0;
    }
    const auto invalid = view.DiagnoseAndAdopt(server.Combined(), interest);
    if (std::find(invalid.begin(), invalid.end(), 2) == invalid.end()) {
      ++missed;
    }
    false_alarms += invalid.size() -
                    (std::find(invalid.begin(), invalid.end(), 2) !=
                             invalid.end()
                         ? 1
                         : 0);
  }
  EXPECT_EQ(missed, 0u);  // a changed item is always diagnosed
  EXPECT_LT(false_alarms, 20u);  // valid items rarely dragged along
}

TEST(ClientSignatureViewTest, DetectionSurvivesManySimultaneousChanges) {
  // More than f items change at once: the scheme may over-invalidate but
  // must still catch the genuinely changed cached item.
  Database db(500, 9);
  SignatureParams params = SmallParams();
  params.m = PaperRequiredSignatures(500, params.f, 0.05);
  SignatureFamily fam(500, params, 77);
  ServerSignatureState server(&fam, &db);
  std::vector<ItemId> interest{1, 2, 3};
  ClientSignatureView view(&fam, interest);
  view.DiagnoseAndAdopt(server.Combined(), {});

  db.ApplyUpdate(2, 1.0);
  server.OnItemChanged(2);
  for (int i = 0; i < 30; ++i) {  // 6x the design point f = 5
    const ItemId id = static_cast<ItemId>(100 + i);
    db.ApplyUpdate(id, 2.0 + i);
    server.OnItemChanged(id);
  }
  const auto invalid = view.DiagnoseAndAdopt(server.Combined(), {1, 2, 3});
  EXPECT_NE(std::find(invalid.begin(), invalid.end(), 2), invalid.end());
}

// The per-client algorithm the shared baseline pool replaced, written
// plainly: each client stores the signatures of the subsets covering its
// interest set and, per report, counts each cached item's mismatching
// subsets among them.
class ReferenceView {
 public:
  /// `subsets_of[item]` is ComputeSubsetsOf(item), expanded once per family.
  ReferenceView(const SignatureFamily& family,
                const std::vector<std::vector<uint32_t>>& subsets_of,
                const std::vector<ItemId>& interest)
      : family_(family), subsets_of_(subsets_of) {
    for (ItemId item : interest) {
      for (uint32_t j : subsets_of_[item]) stored_[j] = 0;
    }
  }

  std::vector<ItemId> DiagnoseAndAdopt(const std::vector<uint64_t>& broadcast,
                                       const std::vector<ItemId>& cached) {
    std::vector<ItemId> invalid;
    if (!has_baseline_) {
      invalid = cached;
    } else {
      std::vector<bool> mismatching(broadcast.size(), false);
      bool any_mismatch = false;
      for (const auto& [j, signature] : stored_) {
        if (signature != broadcast[j]) {
          mismatching[j] = true;
          any_mismatch = true;
        }
      }
      if (any_mismatch) {
        const SignatureParams& params = family_.params();
        for (ItemId item : cached) {
          const std::vector<uint32_t>& subsets = subsets_of_[item];
          uint32_t count = 0;
          for (uint32_t j : subsets) {
            if (mismatching[j]) ++count;
          }
          const double threshold =
              params.per_item_threshold
                  ? params.gamma * static_cast<double>(subsets.size())
                  : params.k_threshold *
                        ValidItemMismatchProbability(params.f, params.g) *
                        static_cast<double>(params.m);
          if (static_cast<double>(count) > threshold) invalid.push_back(item);
        }
      }
    }
    for (auto& [j, signature] : stored_) signature = broadcast[j];
    has_baseline_ = true;
    return invalid;
  }

  size_t signature_count() const { return stored_.size(); }
  bool has_baseline() const { return has_baseline_; }

 private:
  const SignatureFamily& family_;
  const std::vector<std::vector<uint32_t>>& subsets_of_;
  std::map<uint32_t, uint64_t> stored_;
  bool has_baseline_ = false;
};

// Many views on one family, each with its own interest set and wake
// probability, hear a stream of reports with 0..3f changes each (so
// identical, sparse and over-design broadcasts all occur); views are
// occasionally replaced by fresh ones so pool slots are freed and recycled.
// Every report's invalid list must equal the reference's exactly. With
// `hybrid`, the server signs only cold items and the views cover the cold
// part of each interest set, as HybridSigClientManager builds them.
class ViewDifferentialTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(ViewDifferentialTest, MatchesPerClientReference) {
  const auto [per_item, hybrid] = GetParam();
  constexpr uint64_t kN = 300;
  constexpr size_t kViews = 40;
  constexpr int kReports = 60;
  SignatureParams params;
  params.f = 5;
  params.g = 16;
  params.k_threshold = 1.1;
  params.per_item_threshold = per_item;
  params.gamma = 0.8;
  params.m = PaperRequiredSignatures(kN, params.f, 0.05);
  const std::vector<ItemId> hot_set =
      hybrid ? std::vector<ItemId>{0, 3, 7, 11, 20, 42, 64, 99}
             : std::vector<ItemId>{};
  auto is_hot = [&](ItemId id) {
    return std::binary_search(hot_set.begin(), hot_set.end(), id);
  };

  uint64_t diagnosed_invalid = 0;
  uint64_t keyed_diagnoses = 0;
  uint64_t late_diagnoses = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Database db(kN, seed);
    SignatureFamily family(kN, params, seed * 7919);
    ServerSignatureState server(&family, &db, hybrid ? &hot_set : nullptr);
    std::vector<std::vector<uint32_t>> subsets_of;
    for (ItemId id = 0; id < kN; ++id) {
      subsets_of.push_back(family.ComputeSubsetsOf(id));
    }

    struct Client {
      std::vector<ItemId> interest;
      double awake = 1.0;
      std::unique_ptr<ClientSignatureView> view;
      std::unique_ptr<ReferenceView> reference;
    };
    auto fresh_client = [&](Client* c) {
      c->interest.clear();
      const size_t size = 4 + rng.NextUint64(9);
      while (c->interest.size() < size) {
        const ItemId id = static_cast<ItemId>(rng.NextUint64(kN));
        if (is_hot(id) ||
            std::find(c->interest.begin(), c->interest.end(), id) !=
                c->interest.end()) {
          continue;
        }
        c->interest.push_back(id);
      }
      constexpr double kAwake[] = {0.05, 0.3, 0.9, 1.0};
      c->awake = kAwake[rng.NextUint64(4)];
      c->view.reset();  // release the old baseline before the new view
      c->view = std::make_unique<ClientSignatureView>(&family, c->interest);
      c->reference =
          std::make_unique<ReferenceView>(family, subsets_of, c->interest);
      EXPECT_EQ(c->view->cached_signature_count(),
                c->reference->signature_count());
    };
    std::vector<Client> clients(kViews);
    for (Client& c : clients) fresh_client(&c);

    // Half the diagnoses intern by report key (the report index), half by
    // content. Every seventh report changes nothing, so a new key arrives
    // with the previous report's content; now and then a view hears the
    // previous report late, an older key after a newer one.
    double t = 0.0;
    std::vector<uint64_t> previous;
    for (int report = 0; report < kReports; ++report) {
      const uint64_t changes =
          report % 7 == 3 ? 0 : rng.NextUint64(3 * params.f + 1);
      for (uint64_t c = 0; c < changes; ++c) {
        const ItemId id = static_cast<ItemId>(rng.NextUint64(kN));
        t += 1.0;
        db.ApplyUpdate(id, t);
        server.OnItemChanged(id);
      }
      const std::vector<uint64_t> current = server.Combined();
      for (size_t v = 0; v < kViews; ++v) {
        Client& c = clients[v];
        if (rng.NextDouble() < 0.02) fresh_client(&c);
        if (rng.NextDouble() >= c.awake) continue;
        // Cache-slot order: diagnosis must not rely on sorted input.
        std::vector<ItemId> cached;
        for (ItemId id : c.interest) {
          if (rng.NextDouble() < 0.7) cached.push_back(id);
        }
        const bool late = report > 0 && rng.NextDouble() < 0.1;
        const std::vector<uint64_t>& broadcast = late ? previous : current;
        const uint64_t key = static_cast<uint64_t>(late ? report - 1 : report);
        const bool keyed = rng.NextDouble() < 0.5;
        keyed_diagnoses += keyed ? 1 : 0;
        late_diagnoses += late && keyed ? 1 : 0;
        const bool diagnosing = c.reference->has_baseline();
        const std::vector<ItemId> got =
            keyed ? c.view->DiagnoseAndAdopt(broadcast, key, cached)
                  : c.view->DiagnoseAndAdopt(broadcast, cached);
        const std::vector<ItemId> want =
            c.reference->DiagnoseAndAdopt(broadcast, cached);
        ASSERT_EQ(got, want) << "report " << report << " view " << v;
        if (diagnosing) diagnosed_invalid += got.size();
      }
      previous = current;
      // Live baselines: at most one per view plus the current broadcast.
      ASSERT_LE(family.live_baselines(), kViews + 1);
    }
    clients.clear();
    // Only the family's own reference to the current broadcast remains.
    EXPECT_EQ(family.live_baselines(), 1u);
  }
  // The stream must exercise diagnosis, not just first-report drops, and
  // both interning paths, late keys included.
  EXPECT_GT(diagnosed_invalid, 0u);
  EXPECT_GT(keyed_diagnoses, 0u);
  EXPECT_GT(late_diagnoses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdModes, ViewDifferentialTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& param_info) {
      return std::string(std::get<0>(param_info.param) ? "PerItem" : "Global") +
             (std::get<1>(param_info.param) ? "HybridCold" : "Plain");
    });

}  // namespace
}  // namespace mobicache
