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
    const Database* db, const SignatureFamily* family, SimTime latency,
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
  db_->UpdatedIn(last_folded_, now, &changed_);
  for (const UpdatedItem& item : changed_) {
    if (std::binary_search(hot_set_.begin(), hot_set_.end(), item.id)) {
      if (item.updated_at > now - latency_) {
        // Appends to the caller's hot list — the broadcast path hands in
        // the reused report's storage. detlint:allow(alloc-event-path)
        hot_out->push_back(item.id);
      }
    } else {
      state_.OnItemChanged(item.id);
    }
  }
  last_folded_ = now;
}

Report HybridSigServerStrategy::BuildReport(SimTime now, uint64_t interval) {
  HybridReport report;
  report.interval = interval;
  report.timestamp = now;
  FoldChangesThrough(now, &report.hot_ids);
  report.combined = state_.Combined();
  return report;
}

void HybridSigServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                              Report* out) {
  HybridReport* hy = std::get_if<HybridReport>(out);
  // Variant switch happens on the first broadcast only. detlint:allow(alloc-event-path)
  if (hy == nullptr) hy = &out->emplace<HybridReport>();
  hy->interval = interval;
  hy->timestamp = now;
  hy->hot_ids.clear();
  FoldChangesThrough(now, &hy->hot_ids);
  const std::vector<uint64_t>& combined = state_.Combined();
  // Fills the reused report's retained capacity (signature width is fixed
  // after setup). detlint:allow(alloc-event-path)
  hy->combined.assign(combined.begin(), combined.end());
}

bool HybridSigServerStrategy::AdvanceQuiet(SimTime now, uint64_t interval,
                                           const MessageSizes& sizes,
                                           uint64_t* bits) {
  (void)interval;
  quiet_hot_scratch_.clear();
  FoldChangesThrough(now, &quiet_hot_scratch_);
  quiet_now_ = now;
  // Hot half AT-style plus m cold signatures (§10 weighted accounting).
  *bits = quiet_hot_scratch_.size() * sizes.id_bits +
          state_.Combined().size() * sizes.sig_bits;
  return true;
}

void HybridSigServerStrategy::MaterializeQuietInto(SimTime now,
                                                   uint64_t interval,
                                                   Report* out) {
  assert(quiet_now_ == now && last_folded_ == now);
  HybridReport* hy = std::get_if<HybridReport>(out);
  // Variant switch happens on the first broadcast only. detlint:allow(alloc-event-path)
  if (hy == nullptr) hy = &out->emplace<HybridReport>();
  hy->interval = interval;
  hy->timestamp = now;
  // Fill the reused report's retained capacity. detlint:allow(alloc-event-path)
  hy->hot_ids.assign(quiet_hot_scratch_.begin(), quiet_hot_scratch_.end());
  const std::vector<uint64_t>& combined = state_.Combined();
  hy->combined.assign(combined.begin(), combined.end());  // detlint:allow(alloc-event-path)
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
  // DiagnoseAndAdopt expects the cached-id list sorted (as Items() was).
  std::sort(cold_cached_.begin(), cold_cached_.end());

  // Cold half: syndrome diagnosis against the cold-only signatures.
  for (ItemId id : view_.DiagnoseAndAdopt(hybrid.combined, cold_cached_)) {
    cache->Erase(id);
    ++invalidated;
  }

  cache->ValidateAllThrough(hybrid.timestamp);
  heard_any_ = true;
  last_interval_ = hybrid.interval;
  return invalidated;
}

}  // namespace mobicache
