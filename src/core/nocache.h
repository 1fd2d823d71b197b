// No-caching baseline (§4.2): clients keep no copies, every query goes
// uplink, and the server broadcasts nothing (Bc = 0). Wins for heavy
// sleepers and update-intensive workloads.

#ifndef MOBICACHE_CORE_NOCACHE_H_
#define MOBICACHE_CORE_NOCACHE_H_

#include "core/strategy.h"

namespace mobicache {

/// Server half of the no-caching baseline: empty reports. Also serves the
/// ideal/stateful/async baselines (their invalidation flows bypass the
/// report machinery). None of them reads its update stream back, so each
/// declares kNone; an answer observer's audit raises the class through the
/// server's retention floor.
class NullServerStrategy : public ServerStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::kNoCache; }
  void BuildReportInto(SimTime now, uint64_t interval,
                       Report* out) override {
    NullReport& null = ReuseAs<NullReport>(out);
    null.interval = interval;
    null.timestamp = now;
  }
  JournalRetention retention() const override {
    return JournalRetention::kNone;
  }
  SimTime JournalHorizonSeconds() const override { return 0.0; }
};

/// Client half: refuses to cache (uplink fetches are dropped on the floor).
class NoCacheClientManager : public ClientCacheManager {
 public:
  NoCacheClientManager() = default;

  StrategyKind kind() const override { return StrategyKind::kNoCache; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override {
    (void)report;
    (void)cache;
    heard_any_ = true;
    return 0;
  }
  void OnUplinkFetch(ItemId id, uint64_t value, SimTime server_time,
                     ClientCache* cache) override {
    (void)id;
    (void)value;
    (void)server_time;
    (void)cache;
  }
  bool CanAnswerFromCache(ItemId id, SimTime now,
                          const ClientCache& cache) const override {
    (void)id;
    (void)now;
    (void)cache;
    return false;
  }
  bool HasValidBaseline() const override { return heard_any_; }

 private:
  bool heard_any_ = false;
};

/// Client half of the asynchronous-broadcast mode (§3.2): queries are
/// answered immediately; validity is maintained push-style by per-update
/// invalidation messages to the awake units (the cell engine's update
/// trace), and the unit drops its cache on waking (it cannot know
/// which invalidation messages it slept through).
class AsyncClientManager : public ClientCacheManager {
 public:
  AsyncClientManager() = default;

  StrategyKind kind() const override { return StrategyKind::kAsync; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override {
    (void)report;
    (void)cache;
    return 0;
  }
  bool HasValidBaseline() const override { return true; }
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_NOCACHE_H_
