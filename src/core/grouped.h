// Compressed (grouped) AT strategy: the §2 taxonomy's "compressed" report
// format, sketched again in §10 as "aggregate invalidation reports ...
// changes reported only per group of items". Items are partitioned into G
// contiguous blocks; the periodic report lists the blocks that contain at
// least one change since the last report, costing ceil(log2 G) bits per
// entry. Clients invalidate every cached member of a mentioned block, so
// smaller G trades report bits for group-level false alarms.

#ifndef MOBICACHE_CORE_GROUPED_H_
#define MOBICACHE_CORE_GROUPED_H_

#include <cstdint>

#include "core/strategy.h"

namespace mobicache {

/// Partition helper shared by server and clients: `n` items in `G`
/// contiguous blocks of size ceil(n / G).
class ItemGrouping {
 public:
  /// `n` >= 1, 1 <= num_groups <= n.
  ItemGrouping(uint64_t n, uint32_t num_groups);

  uint32_t GroupOf(ItemId id) const {
    return static_cast<uint32_t>(id / block_);
  }
  uint64_t block_size() const { return block_; }
  uint32_t num_groups() const { return num_groups_; }
  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  uint32_t num_groups_;
  uint64_t block_;
};

/// Server half: groups of Eq. 2's change set.
class GroupedAtServerStrategy : public ServerStrategy {
 public:
  GroupedAtServerStrategy(const Database* db, SimTime latency,
                          uint32_t num_groups);

  StrategyKind kind() const override { return StrategyKind::kGroupedAt; }
  void BuildReportInto(SimTime now, uint64_t interval, Report* out) override;
  SimTime JournalHorizonSeconds() const override { return latency_; }
  /// AT's windows (see AtServerStrategy::retention).
  JournalRetention retention() const override {
    return JournalRetention::kDirtySet;
  }

  const ItemGrouping& grouping() const { return grouping_; }

 private:
  /// Appends the window's changed groups (distinct, ascending) to `*out`.
  /// UpdatedIdsIn yields ascending ids and GroupOf is nondecreasing in id, so
  /// consecutive dedup produces exactly the sorted distinct set.
  void ChangedGroups(SimTime now, std::vector<uint32_t>* out);

  const Database* db_;
  SimTime latency_;
  ItemGrouping grouping_;
  // Scratch for Database::UpdatedIdsIn, reused across reports.
  std::vector<ItemId> changed_;
};

/// Client half: AT drop rules at group granularity.
class GroupedAtClientManager : public ClientCacheManager {
 public:
  GroupedAtClientManager(uint64_t n, uint32_t num_groups);

  StrategyKind kind() const override { return StrategyKind::kGroupedAt; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override;
  bool HasValidBaseline() const override { return heard_any_; }

 private:
  ItemGrouping grouping_;
  bool heard_any_ = false;
  uint64_t last_interval_ = 0;
  std::vector<ItemId> victims_;  // scratch, reused across reports
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_GROUPED_H_
