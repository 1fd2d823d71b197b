// Amnesic Terminals (AT, §3.2). The server reports, every L seconds, only
// the identifiers of items updated since the previous report (Eq. 2). A
// client that hears consecutive reports drops exactly the mentioned items;
// a client that misses even one report must drop its entire cache. AT is
// equivalent in cost and cache behaviour to asynchronous broadcast of
// individual invalidation messages.

#ifndef MOBICACHE_CORE_AT_H_
#define MOBICACHE_CORE_AT_H_

#include "core/strategy.h"

namespace mobicache {

/// AT server half: builds Eq. 2 reports over the last interval.
class AtServerStrategy : public ServerStrategy {
 public:
  /// `latency` is L (> 0).
  AtServerStrategy(const Database* db, SimTime latency);

  StrategyKind kind() const override { return StrategyKind::kAt; }
  void BuildReportInto(SimTime now, uint64_t interval, Report* out) override;
  SimTime JournalHorizonSeconds() const override { return latency_; }
  /// One window per broadcast, (T_i - L, T_i], with T_i non-decreasing:
  /// exactly the queries a dirty set answers without a journal.
  JournalRetention retention() const override {
    return JournalRetention::kDirtySet;
  }

 private:
  const Database* db_;
  SimTime latency_;
};

/// AT client half: implements the §3.2 client algorithm.
class AtClientManager : public ClientCacheManager {
 public:
  AtClientManager() = default;

  StrategyKind kind() const override { return StrategyKind::kAt; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override;
  bool HasValidBaseline() const override { return heard_any_; }

  uint64_t last_interval_heard() const { return last_interval_; }

 protected:
  // Shared with the quasi-copy specialization (§7), which reuses the AT drop
  // rules but stamps validity differently.
  bool heard_any_ = false;
  uint64_t last_interval_ = 0;
  std::vector<ItemId> victims_;  // scratch, reused across reports
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_AT_H_
