#include "core/ts.h"

#include <algorithm>
#include <cassert>

namespace mobicache {

TsServerStrategy::TsServerStrategy(const Database* db, SimTime latency,
                                   uint64_t window_intervals)
    : db_(db),
      latency_(latency),
      window_intervals_(window_intervals),
      window_(latency * static_cast<double>(window_intervals)) {
  assert(latency > 0.0);
  assert(window_intervals >= 1);
}

namespace {
// Fills a reused report's retained capacity, growing it with headroom so a
// new record entry count does not reallocate every time.
void CopyEntries(const std::vector<TsReportEntry>& from,
                 std::vector<TsReportEntry>* to) {
  // detlint:allow-function(alloc-event-path)
  if (to->capacity() < from.size()) to->reserve(2 * from.size());
  to->assign(from.begin(), from.end());
}
}  // namespace

void TsServerStrategy::AdvanceEntries(SimTime now) {
  // Every append below lands in next_scratch_/delta_scratch_, member scratch
  // whose capacity is retained across intervals; the steady state allocates
  // nothing. detlint:allow-function(alloc-event-path)
  assert(now >= prev_now_ && "TS reports are built in time order");
  // U_i = { [j, t_j] : T_i - w < t_j <= T_i }  (Eq. 1)
  // The previous report lists every id whose latest update fell in
  // (T_prev - w, T_prev]. Splice in the delta since max(T_prev, T_i - w),
  // let fresher delta entries supersede stale carried ones, and expire what
  // aged out of the window. After a gap of k or more intervals (and on the
  // first build, T_prev = -inf) the delta is the whole window and every
  // carried entry expires. Both inputs are id-sorted, so a single merge
  // yields the id-sorted result.
  const SimTime lo = now - window_;
  db_->UpdatedIn(std::max(prev_now_, lo), now, &delta_scratch_);
  next_scratch_.clear();
  const size_t bound = prev_entries_.size() + delta_scratch_.size();
  // Headroom: an exact reserve would reallocate at every new record.
  if (next_scratch_.capacity() < bound) next_scratch_.reserve(2 * bound);
  auto d = delta_scratch_.begin();
  for (const TsReportEntry& e : prev_entries_) {
    while (d != delta_scratch_.end() && d->id < e.id) {
      next_scratch_.push_back(TsReportEntry{d->id, d->updated_at});
      ++d;
    }
    if (d != delta_scratch_.end() && d->id == e.id) continue;  // superseded
    if (e.updated_at <= lo) continue;  // aged out of w
    next_scratch_.push_back(e);
  }
  for (; d != delta_scratch_.end(); ++d) {
    next_scratch_.push_back(TsReportEntry{d->id, d->updated_at});
  }
  prev_now_ = now;
  prev_entries_.swap(next_scratch_);
}

void TsServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                       Report* out) {
  AdvanceEntries(now);
  TsReport& ts = ReuseAs<TsReport>(out);
  ts.interval = interval;
  ts.timestamp = now;
  ts.window = window_;
  CopyEntries(prev_entries_, &ts.entries);
}

void TsReportIndex::Decode(uint64_t interval, SimTime timestamp,
                           const std::vector<TsReportEntry>& entries) {
  for (ItemId id : set_ids_) table_[id] = kNotMentioned;
  set_ids_.clear();
  ItemId max_id = 0;
  for (const TsReportEntry& e : entries) max_id = std::max(max_id, e.id);
  if (!entries.empty() && max_id >= table_.size()) {
    // Grows only when a report lists an id beyond every earlier one, so at
    // most up to n. detlint:allow(alloc-event-path)
    table_.resize(static_cast<size_t>(max_id) + 1, kNotMentioned);
  }
  for (const TsReportEntry& e : entries) {
    table_[e.id] = e.updated_at;
    // Member scratch, capacity retained across reports.
    // detlint:allow(alloc-event-path)
    set_ids_.push_back(e.id);
  }
  bound_ = true;
  interval_ = interval;
  timestamp_ = timestamp;
}

TsClientManager::TsClientManager(uint64_t window_intervals,
                                 TsReportIndex* shared_index)
    : window_intervals_(window_intervals),
      own_index_(shared_index == nullptr ? std::make_unique<TsReportIndex>()
                                         : nullptr),
      index_(shared_index == nullptr ? own_index_.get() : shared_index) {
  assert(window_intervals >= 1);
}

uint64_t TsClientManager::OnReport(const Report& report, ClientCache* cache) {
  const auto& ts = std::get<TsReport>(report);
  uint64_t invalidated = 0;

  // Drop rule: slept through more than k intervals since the last heard
  // report (T_i - T_l > w), or never heard one.
  const bool gap_too_long =
      !heard_any_ || ts.interval > last_interval_ + window_intervals_;
  if (gap_too_long) {
    invalidated = cache->size();
    cache->Clear();
  } else {
    // Purge cached items the report marks as changed after the copy's
    // validity timestamp; every surviving item is revalidated through T_i.
    if (CacheDrivenScanPays(ts.entries.size(), cache->size())) {
      // Report dwarfs the cache: read each cached item's report timestamp
      // from the domain's decoded index instead of probing the cache per
      // report entry. The first listener of a broadcast pays the decode.
      index_->Bind(ts);
      victims_.clear();
      cache->ForEachItem([&](ItemId id, const CacheEntry& entry) {
        if (entry.timestamp < index_->At(id)) {
          // Member scratch, capacity retained across reports.
          // detlint:allow(alloc-event-path)
          victims_.push_back(id);
        }
      });
      for (ItemId id : victims_) cache->Erase(id);
      invalidated = victims_.size();
    } else {
      for (const TsReportEntry& entry : ts.entries) {
        const CacheEntry* cached = cache->Peek(entry.id);
        if (cached != nullptr && cached->timestamp < entry.updated_at) {
          cache->Erase(entry.id);
          ++invalidated;
        }
      }
    }
    cache->ValidateAllThrough(ts.timestamp);
  }

  heard_any_ = true;
  last_interval_ = ts.interval;
  return invalidated;
}

}  // namespace mobicache
