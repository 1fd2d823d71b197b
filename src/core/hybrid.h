// Hybrid SIG (§10 "weighted schemes"): "the 'hot spot' items can be
// individually broadcast, while the rest of the database items would
// participate in the signatures." The agreed hot set is invalidated
// AT-style by explicit identifiers (exact, cheap for a small hot set, but
// amnesic across naps); everything else is covered by combined signatures
// over the *cold* items only, so hot-item churn no longer floods the
// syndrome — the failure mode that kills plain SIG whenever per-interval
// changes exceed the design parameter f (see bench/sig_sizing and
// EXPERIMENTS.md).

#ifndef MOBICACHE_CORE_HYBRID_H_
#define MOBICACHE_CORE_HYBRID_H_

#include <cstdint>
#include <vector>

#include "core/strategy.h"
#include "sig/signature.h"

namespace mobicache {

/// Server half. The family and the hot set are both part of the contract
/// (universally known); the signature state excludes hot items.
class HybridSigServerStrategy : public ServerStrategy {
 public:
  /// `hot_set` must be sorted and contain valid item ids.
  HybridSigServerStrategy(const Database* db, SignatureFamily* family,
                          SimTime latency, std::vector<ItemId> hot_set);

  StrategyKind kind() const override { return StrategyKind::kHybridSig; }
  void BuildReportInto(SimTime now, uint64_t interval, Report* out) override;
  SimTime JournalHorizonSeconds() const override { return latency_; }
  /// As for SIG: the fold's window query, whose lo never decreases, is the
  /// only history hybrid reads, so the dirty set serves it.
  JournalRetention retention() const override {
    return JournalRetention::kDirtySet;
  }

  const std::vector<ItemId>& hot_set() const { return hot_set_; }

 private:
  /// One pass over the changes since the last snapshot: cold changes fold
  /// into the combined signatures, changed hot ids are appended to
  /// `*hot_out` in ascending id order.
  void FoldChangesThrough(SimTime now, std::vector<ItemId>* hot_out);

  const Database* db_;
  SignatureFamily* family_;
  SimTime latency_;
  std::vector<ItemId> hot_set_;
  ServerSignatureState state_;
  SimTime last_folded_ = 0.0;
  std::vector<ItemId> changed_;  // fold scratch, reused across reports
};

/// Client half: AT rules for cached hot items (including the drop-on-missed-
/// report amnesia, but only for the hot half of the cache), signature
/// diagnosis for cached cold items (robust to arbitrary naps). The cold
/// view interns baselines in `family`'s pool and reads its membership
/// rows, so the family must outlive the manager.
class HybridSigClientManager : public ClientCacheManager {
 public:
  /// `interest` is the client's hot spot; `hot_set` must match the server's.
  HybridSigClientManager(SignatureFamily* family,
                         const std::vector<ItemId>& interest,
                         std::vector<ItemId> hot_set);

  StrategyKind kind() const override { return StrategyKind::kHybridSig; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override;
  bool HasValidBaseline() const override { return heard_any_; }

 private:
  bool IsHot(ItemId id) const;

  std::vector<ItemId> hot_set_;
  ClientSignatureView view_;  // over the cold part of the interest set
  bool heard_any_ = false;
  uint64_t last_interval_ = 0;
  std::vector<ItemId> hot_victims_;  // scratch, reused across reports
  std::vector<ItemId> cold_cached_;  // scratch, reused across reports
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_HYBRID_H_
