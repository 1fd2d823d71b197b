// Signatures strategy (SIG, §3.3) as a report strategy pair. The server
// maintains the m combined signatures incrementally against the database and
// broadcasts them every L seconds (state-based, compressed reports); clients
// diagnose their caches by syndrome counting. Unlike TS/AT there is no drop
// window: a client that slept arbitrarily long revalidates against its last
// stored signatures, which is what makes SIG the sleeper-friendly strategy.

#ifndef MOBICACHE_CORE_SIG_STRATEGY_H_
#define MOBICACHE_CORE_SIG_STRATEGY_H_

#include <memory>

#include "core/strategy.h"
#include "sig/signature.h"

namespace mobicache {

/// SIG server half. The family is shared ("universally known"): the cell
/// creates one SignatureFamily and hands it to the server strategy and to
/// every client manager.
class SigServerStrategy : public ServerStrategy {
 public:
  /// `latency` is L (> 0). Builds the initial combined signatures from the
  /// database's current contents (O(n * m / (f+1))).
  SigServerStrategy(const Database* db, SignatureFamily* family,
                    SimTime latency);

  StrategyKind kind() const override { return StrategyKind::kSig; }
  void BuildReportInto(SimTime now, uint64_t interval, Report* out) override;
  SimTime JournalHorizonSeconds() const override { return latency_; }
  /// The only history SIG reads is FoldChangesThrough's window query, whose
  /// lo (the previous fold) never decreases: the database's dirty set
  /// answers it exactly, with no journal.
  JournalRetention retention() const override {
    return JournalRetention::kDirtySet;
  }

 private:
  /// Folds every item changed since the last snapshot into the combined
  /// signatures (the state-advance half of BuildReportInto).
  void FoldChangesThrough(SimTime now);

  const Database* db_;
  SignatureFamily* family_;
  SimTime latency_;
  ServerSignatureState state_;
  SimTime last_folded_ = 0.0;  // updates up to here are in `state_`
  std::vector<ItemId> changed_;  // fold scratch, reused across reports
};

/// SIG client half. Its view interns baselines in `family`'s pool and reads
/// the family's membership rows, so the family must outlive the manager.
class SigClientManager : public ClientCacheManager {
 public:
  /// `interest` is this client's hot spot (the items it may ever cache).
  SigClientManager(SignatureFamily* family,
                   const std::vector<ItemId>& interest);

  StrategyKind kind() const override { return StrategyKind::kSig; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override;
  bool HasValidBaseline() const override { return view_.has_baseline(); }

  const ClientSignatureView& view() const { return view_; }

 private:
  ClientSignatureView view_;
  std::vector<ItemId> cached_;  // scratch, reused across reports
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_SIG_STRATEGY_H_
