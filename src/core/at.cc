#include "core/at.h"

#include <algorithm>
#include <cassert>

namespace mobicache {

AtServerStrategy::AtServerStrategy(const Database* db, SimTime latency)
    : db_(db), latency_(latency) {
  assert(latency > 0.0);
}

void AtServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                       Report* out) {
  AtReport& at = ReuseAs<AtReport>(out);
  at.interval = interval;
  at.timestamp = now;
  // U_i = { j : T_{i-1} < t_j <= T_i }  (Eq. 2), into the reused report's
  // retained capacity.
  db_->UpdatedIdsIn(now - latency_, now, &at.ids);
}

uint64_t AtClientManager::OnReport(const Report& report, ClientCache* cache) {
  const auto& at = std::get<AtReport>(report);
  uint64_t invalidated = 0;

  // Drop rule: any missed report (T_i - T_l > L) loses the whole cache.
  const bool missed_one = !heard_any_ || at.interval > last_interval_ + 1;
  if (missed_one) {
    invalidated = cache->size();
    cache->Clear();
  } else {
    if (CacheDrivenScanPays(at.ids.size(), cache->size())) {
      // Report dwarfs the cache: binary-search the id-sorted report per
      // cached item instead of probing the cache per reported id.
      victims_.clear();
      cache->ForEachItem([&](ItemId id, const CacheEntry&) {
        if (std::binary_search(at.ids.begin(), at.ids.end(), id)) {
          // Member scratch, capacity retained across reports.
          // detlint:allow(alloc-event-path)
          victims_.push_back(id);
        }
      });
      for (ItemId id : victims_) cache->Erase(id);
      invalidated = victims_.size();
    } else {
      for (ItemId id : at.ids) {
        if (cache->Erase(id)) ++invalidated;
      }
    }
    cache->ValidateAllThrough(at.timestamp);
  }

  heard_any_ = true;
  last_interval_ = at.interval;
  return invalidated;
}

}  // namespace mobicache
