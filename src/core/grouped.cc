#include "core/grouped.h"

#include <algorithm>
#include <cassert>

namespace mobicache {

ItemGrouping::ItemGrouping(uint64_t n, uint32_t num_groups)
    : n_(n), num_groups_(num_groups) {
  assert(n >= 1);
  assert(num_groups >= 1 && num_groups <= n);
  block_ = (n + num_groups - 1) / num_groups;  // ceil(n / G)
}

GroupedAtServerStrategy::GroupedAtServerStrategy(const Database* db,
                                                 SimTime latency,
                                                 uint32_t num_groups)
    : db_(db), latency_(latency), grouping_(db->size(), num_groups) {
  assert(latency > 0.0);
}

void GroupedAtServerStrategy::ChangedGroups(SimTime now,
                                            std::vector<uint32_t>* out) {
  db_->UpdatedIdsIn(now - latency_, now, &changed_);
  for (ItemId id : changed_) {
    const uint32_t group = grouping_.GroupOf(id);
    // Appends to the caller's group list — the broadcast path hands in the
    // reused report's retained storage. detlint:allow(alloc-event-path)
    if (out->empty() || out->back() != group) out->push_back(group);
  }
}

void GroupedAtServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                              Report* out) {
  GroupedAtReport& gat = ReuseAs<GroupedAtReport>(out);
  gat.interval = interval;
  gat.timestamp = now;
  gat.num_groups = grouping_.num_groups();
  gat.groups.clear();
  ChangedGroups(now, &gat.groups);
}

GroupedAtClientManager::GroupedAtClientManager(uint64_t n,
                                               uint32_t num_groups)
    : grouping_(n, num_groups) {}

uint64_t GroupedAtClientManager::OnReport(const Report& report,
                                          ClientCache* cache) {
  const auto& gat = std::get<GroupedAtReport>(report);
  assert(gat.num_groups == grouping_.num_groups());
  uint64_t invalidated = 0;

  const bool missed_one = !heard_any_ || gat.interval > last_interval_ + 1;
  if (missed_one) {
    invalidated = cache->size();
    cache->Clear();
  } else {
    victims_.clear();
    cache->ForEachItem([&](ItemId id, const CacheEntry&) {
      if (std::binary_search(gat.groups.begin(), gat.groups.end(),
                             grouping_.GroupOf(id))) {
        // Member scratch, capacity retained across reports.
        // detlint:allow(alloc-event-path)
        victims_.push_back(id);
      }
    });
    for (ItemId id : victims_) cache->Erase(id);
    invalidated = victims_.size();
    cache->ValidateAllThrough(gat.timestamp);
  }

  heard_any_ = true;
  last_interval_ = gat.interval;
  return invalidated;
}

}  // namespace mobicache
