#include "core/sig_strategy.h"

#include <algorithm>
#include <cassert>

namespace mobicache {

SigServerStrategy::SigServerStrategy(const Database* db,
                                     const SignatureFamily* family,
                                     SimTime latency)
    : db_(db), family_(family), latency_(latency), state_(family, db) {
  assert(latency > 0.0);
  assert(family->n() == db->size());
}

void SigServerStrategy::FoldChangesThrough(SimTime now) {
  // The items whose latest update lies in (last_folded_, now]: the server
  // drains updates strictly before each broadcast instant, so these are
  // exactly the items changed since the previous fold. OnItemChanged reads
  // the current value and XORs a per-item delta, so folding each changed id
  // once, in any order, is exact. One exception: an update stamped exactly
  // at a broadcast instant T is applied after that broadcast's fold and
  // lies outside (T, T + L], so it reaches the signatures with the item's
  // next change. Update times are continuous draws, so that coincidence is
  // vanishingly rare.
  db_->UpdatedIn(last_folded_, now, &changed_);
  for (const UpdatedItem& item : changed_) state_.OnItemChanged(item.id);
  last_folded_ = now;
}

Report SigServerStrategy::BuildReport(SimTime now, uint64_t interval) {
  // Fold every item changed since the last snapshot into the combined
  // signatures, then broadcast the current m signatures.
  FoldChangesThrough(now);

  SigReport report;
  report.interval = interval;
  report.timestamp = now;
  report.combined = state_.Combined();
  return report;
}

void SigServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                        Report* out) {
  FoldChangesThrough(now);
  SigReport* sig = std::get_if<SigReport>(out);
  // Variant switch happens on the first broadcast only. detlint:allow(alloc-event-path)
  if (sig == nullptr) sig = &out->emplace<SigReport>();
  sig->interval = interval;
  sig->timestamp = now;
  const std::vector<uint64_t>& combined = state_.Combined();
  // Fills the reused report's retained capacity (signature width is fixed
  // after setup). detlint:allow(alloc-event-path)
  sig->combined.assign(combined.begin(), combined.end());
}

bool SigServerStrategy::AdvanceQuiet(SimTime now, uint64_t interval,
                                     const MessageSizes& sizes,
                                     uint64_t* bits) {
  (void)interval;
  // SIG reports are the current state: advancing is just folding, and the
  // size is fixed at m signatures (Eq. 25: m * g).
  FoldChangesThrough(now);
  *bits = state_.Combined().size() * sizes.sig_bits;
  return true;
}

void SigServerStrategy::MaterializeQuietInto(SimTime now, uint64_t interval,
                                            Report* out) {
  assert(last_folded_ == now);
  SigReport* sig = std::get_if<SigReport>(out);
  // Variant switch happens on the first broadcast only. detlint:allow(alloc-event-path)
  if (sig == nullptr) sig = &out->emplace<SigReport>();
  sig->interval = interval;
  sig->timestamp = now;
  const std::vector<uint64_t>& combined = state_.Combined();
  // Fills the reused report's retained capacity. detlint:allow(alloc-event-path)
  sig->combined.assign(combined.begin(), combined.end());
}

SigClientManager::SigClientManager(SignatureFamily* family,
                                   const std::vector<ItemId>& interest)
    : view_(family, interest) {}

uint64_t SigClientManager::OnReport(const Report& report, ClientCache* cache) {
  const auto& sig = std::get<SigReport>(report);
  cached_.clear();
  cache->ForEachItem([&](ItemId id, const CacheEntry&) {
    // Member scratch, capacity retained across reports.
    // detlint:allow(alloc-event-path)
    cached_.push_back(id);
  });
  // Diagnosis reports invalid ids in cached-list order; sort so that order
  // is ascending id, independent of the cache's slot layout.
  std::sort(cached_.begin(), cached_.end());
  const std::vector<ItemId> invalid =
      view_.DiagnoseAndAdopt(sig.combined, cached_);
  for (ItemId id : invalid) cache->Erase(id);
  cache->ValidateAllThrough(sig.timestamp);
  return invalid.size();
}

}  // namespace mobicache
