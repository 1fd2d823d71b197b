#include "core/hybrid.h"

#include <algorithm>
#include <cassert>

namespace mobicache {

namespace {

std::vector<ItemId> ColdInterest(const std::vector<ItemId>& interest,
                                 const std::vector<ItemId>& hot_set) {
  std::vector<ItemId> cold;
  for (ItemId id : interest) {
    if (!std::binary_search(hot_set.begin(), hot_set.end(), id)) {
      cold.push_back(id);
    }
  }
  // ClientSignatureView tolerates an empty interest set.
  return cold;
}

}  // namespace

HybridSigServerStrategy::HybridSigServerStrategy(
    const Database* db, SignatureFamily* family, SimTime latency,
    std::vector<ItemId> hot_set)
    : db_(db),
      family_(family),
      latency_(latency),
      hot_set_(std::move(hot_set)),
      state_(family, db, &hot_set_) {
  assert(latency > 0.0);
  assert(std::is_sorted(hot_set_.begin(), hot_set_.end()));
  assert(family->n() == db->size());
}

void HybridSigServerStrategy::FoldChangesThrough(
    SimTime now, std::vector<ItemId>* hot_out) {
  // One pass over the items changed since the last fold (the window and
  // its broadcast-instant exception are SigServerStrategy's): hot changes
  // are listed explicitly — in the query's ascending id order, so the list
  // needs no sort — and cold changes fold into the combined signatures.
  // Only a hot id's update time is read, to keep it to the AT window.
  db_->UpdatedIdsIn(last_folded_, now, &changed_);
  for (ItemId id : changed_) {
    if (std::binary_search(hot_set_.begin(), hot_set_.end(), id)) {
      if (db_->LastUpdateOf(id) > now - latency_) {
        // Appends to the caller's hot list — the broadcast path hands in
        // the reused report's storage. detlint:allow(alloc-event-path)
        hot_out->push_back(id);
      }
    } else {
      state_.OnItemChanged(id);
    }
  }
  last_folded_ = now;
}

void HybridSigServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                              Report* out) {
  HybridReport& hy = ReuseAs<HybridReport>(out);
  hy.interval = interval;
  hy.timestamp = now;
  hy.hot_ids.clear();
  FoldChangesThrough(now, &hy.hot_ids);
  const std::vector<uint64_t>& combined = state_.Combined();
  // Fills the reused report's retained capacity (signature width is fixed
  // after setup). detlint:allow(alloc-event-path)
  hy.combined.assign(combined.begin(), combined.end());
}

HybridSigClientManager::HybridSigClientManager(
    SignatureFamily* family, const std::vector<ItemId>& interest,
    std::vector<ItemId> hot_set)
    : hot_set_(std::move(hot_set)),
      view_(family, ColdInterest(interest, hot_set_)) {
  assert(std::is_sorted(hot_set_.begin(), hot_set_.end()));
}

bool HybridSigClientManager::IsHot(ItemId id) const {
  return std::binary_search(hot_set_.begin(), hot_set_.end(), id);
}

uint64_t HybridSigClientManager::OnReport(const Report& report,
                                          ClientCache* cache) {
  const auto& hybrid = std::get<HybridReport>(report);
  uint64_t invalidated = 0;

  // Hot half: AT semantics. A missed report loses only the hot part of the
  // cache — the cold part revalidates from signatures regardless.
  const bool missed_one =
      !heard_any_ || hybrid.interval > last_interval_ + 1;
  hot_victims_.clear();
  cold_cached_.clear();
  cache->ForEachItem([&](ItemId id, const CacheEntry&) {
    if (IsHot(id)) {
      const bool drop =
          missed_one || std::binary_search(hybrid.hot_ids.begin(),
                                           hybrid.hot_ids.end(), id);
      // Both lists are member scratch with capacity retained across
      // reports. detlint:allow(alloc-event-path)
      if (drop) hot_victims_.push_back(id);
    } else {
      cold_cached_.push_back(id);  // detlint:allow(alloc-event-path) member scratch
    }
  });
  for (ItemId id : hot_victims_) cache->Erase(id);
  invalidated += hot_victims_.size();

  // Cold half: syndrome diagnosis against the cold-only signatures. The
  // invalid list comes back in cache-slot order; erase in ascending id
  // order, independent of the slot layout.
  std::vector<ItemId>& cold_invalid =
      view_.DiagnoseAndAdopt(hybrid.combined, hybrid.interval, cold_cached_);
  std::sort(cold_invalid.begin(), cold_invalid.end());
  for (ItemId id : cold_invalid) cache->Erase(id);
  invalidated += cold_invalid.size();

  cache->ValidateAllThrough(hybrid.timestamp);
  heard_any_ = true;
  last_interval_ = hybrid.interval;
  return invalidated;
}

}  // namespace mobicache
