#include "db/database.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>
#include <utility>

#include "util/random.h"
#include "util/simd.h"

namespace mobicache {

namespace {

/// Primary storage cost of one raw journal entry: a SimTime and an ItemId in
/// the log's parallel arrays.
constexpr uint64_t kRawEntryBytes = sizeof(SimTime) + sizeof(ItemId);

/// Ids of slack UpdatedIn's time read prefetches ahead of its cursor: each
/// id touches one random hot-slab line, and eight ids of lead time cover a
/// DRAM round-trip.
constexpr size_t kSlabReadPrefetchDistance = 8;

/// Ids a dirty-set walk gathers in its stack buffer before appending them
/// to the caller's vector: a sparse window then pays one append per block
/// rather than one per set word.
constexpr size_t kFoundFlushAt = 192;

}  // namespace

const char* JournalRetentionName(JournalRetention retention) {
  switch (retention) {
    case JournalRetention::kNone:
      return "none";
    case JournalRetention::kDirtySet:
      return "dirty";
    case JournalRetention::kFullWindow:
      return "full";
  }
  return "full";
}

uint64_t SyntheticValue(uint64_t seed, ItemId id, uint64_t version) {
  uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (id + 1)) ^
                   (0xD1B54A32D192ED03ULL * (version + 1));
  return SplitMix64(&state);
}

Database::Database(uint64_t n, uint64_t seed) : n_(n), seed_(seed) {
  assert(n >= 1);
  // 64-byte-aligned slab; HotItem is 16 bytes, so records tile cache lines
  // exactly. Values are derived on demand, so no per-item initialization
  // pass is needed — construction is O(1) beyond zeroing the slab.
  hot_ = static_cast<HotItem*>(
      ::operator new(n * sizeof(HotItem), std::align_val_t{64}));
  for (uint64_t i = 0; i < n; ++i) new (hot_ + i) HotItem();
  // The default class, kFullWindow, keeps the dirty set armed.
  fresh_words_.assign((n + 63) / 64, 0);
  older_words_.assign((n + 63) / 64, 0);
  journal_bytes_ = DirtySetBytes();
}

Database::~Database() {
  ::operator delete(hot_, std::align_val_t{64});
}

void Database::ApplyUpdateBatch(const ItemId* ids, const SimTime* times,
                                size_t count) {
  assert(count > 0);
  assert(log_times_.empty() || times[0] >= log_times_.back());
#ifndef NDEBUG
  // Check the batch contract wholesale, so the loops below stay
  // assertion-free in debug builds too.
  for (size_t i = 0; i < count; ++i) {
    assert(ids[i] < n_);
    assert(i == 0 || times[i] >= times[i - 1]);
  }
#endif
  // Layout-compatible with the SIMD kernel's record view; the kernel's
  // effect (version += 1, time bit-copied, in staging order) is exactly the
  // slab's whole per-entry work.
  static_assert(sizeof(HotItem) == sizeof(simd::Record16) &&
                    offsetof(HotItem, version) ==
                        offsetof(simd::Record16, version) &&
                    offsetof(HotItem, last_update) ==
                        offsetof(simd::Record16, time),
                "hot record and SIMD record view must share a layout");
  simd::ApplyVersionTimestamp(reinterpret_cast<simd::Record16*>(hot_), ids,
                              times, count);
  if (journal_enabled()) {
    // Appends land in the log's retained capacity: pruning compacts in
    // place, so once warm the log never outgrows it.
    // detlint:allow(alloc-event-path)
    log_times_.insert(log_times_.end(), times, times + count);
    // detlint:allow(alloc-event-path) the same retained capacity
    log_ids_.insert(log_ids_.end(), ids, ids + count);
    journal_bytes_ += kRawEntryBytes * count;
  }
  if (dirty_armed()) MarkDirty(ids, times, count);
  total_updates_ += count;
  if (observer_) {
    for (size_t i = 0; i < count; ++i) observer_(ids[i], times[i]);
  }
}

void Database::MarkDirty(const ItemId* ids, const SimTime* times,
                         size_t count) {
  uint64_t* words = fresh_words_.data();
  for (size_t i = 0; i < count; ++i) {
    const ItemId id = ids[i];
    words[id >> 6] |= uint64_t{1} << (id & 63);
  }
  fresh_first_ = std::min(fresh_first_, times[0]);
  fresh_last_ = std::max(fresh_last_, times[count - 1]);
}

void Database::SetRetention(JournalRetention retention) {
  assert((retention <= retention_ || total_updates_ == 0) &&
         "history dropped by a lower class cannot be recovered");
  retention_ = retention;
  if (retention != JournalRetention::kFullWindow) {
    std::vector<SimTime>().swap(log_times_);
    std::vector<ItemId>().swap(log_ids_);
    log_head_ = 0;
  }
  if (retention == JournalRetention::kNone) {
    std::vector<uint64_t>().swap(fresh_words_);
    std::vector<uint64_t>().swap(older_words_);
  } else if (fresh_words_.empty()) {
    fresh_words_.assign((n_ + 63) / 64, 0);
    older_words_.assign((n_ + 63) / 64, 0);
  }
  // Before the first update the class is configuration, not history: the
  // peak restarts from what the armed class holds.
  if (total_updates_ == 0) {
    journal_bytes_peak_ = 0;
  } else {
    SyncJournalBytesPeak();
  }
  journal_bytes_ = (dirty_armed() ? DirtySetBytes() : 0) +
                   kRawEntryBytes * journal_size();
}

void Database::UpdatedIn(SimTime lo, SimTime hi,
                         std::vector<UpdatedItem>* out) const {
  // Appends land in `out` (caller-owned scratch, reused across intervals),
  // which retains its capacity. detlint:allow-function(alloc-event-path)
  out->clear();
  // The ids query, then each listed item's time from the slab, prefetched a
  // few ids ahead of the read.
  std::vector<ItemId>& ids = ids_scratch_;
  UpdatedIdsIn(lo, hi, &ids);
  const size_t m = ids.size();
  out->reserve(m);
  for (size_t i = 0; i < m; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kSlabReadPrefetchDistance < m) {
      __builtin_prefetch(&hot_[ids[i + kSlabReadPrefetchDistance]], /*rw=*/0,
                         /*locality=*/1);
    }
#endif
    out->push_back(UpdatedItem{ids[i], hot_[ids[i]].last_update});
  }
}

void Database::UpdatedIdsIn(SimTime lo, SimTime hi,
                            std::vector<ItemId>* out) const {
  out->clear();
  // No history kept (kNone): the documented answer is empty.
  if (hi <= lo || !dirty_armed()) return;
  QueryDirtySet(lo, hi, out);
}

void Database::QueryDirtySet(SimTime lo, SimTime hi,
                             std::vector<ItemId>* out) const {
  assert(lo < hi);
  assert(lo >= dirty_floor_ &&
         "dirty-set window queries need a non-decreasing lo");
  // The three proofs of the file comment. When the older-only items are
  // proven both outside and inside there are none, so the first wins.
  const bool fresh_inside = fresh_first_ > lo && fresh_last_ <= hi;
  const bool older_outside = settled_last_ <= lo;
  const bool older_inside = lo == dirty_floor_ && settled_last_ <= hi;
  const bool bitwise = fresh_inside && (older_outside || older_inside);
  dirty_bitwise_queries_ += bitwise ? 1 : 0;
  if (bitwise && older_outside) {
    // The answer is the fresh set; it becomes the older set, and the old
    // older bits are dropped.
    AppendSetBits(fresh_words_, out);
    fresh_words_.swap(older_words_);
    std::fill(fresh_words_.begin(), fresh_words_.end(), uint64_t{0});
  } else {
    MergeDirtyWords(lo, hi, /*all_inside=*/bitwise, out);
  }
  dirty_floor_ = lo;
  settled_last_ = std::max(settled_last_, fresh_last_);
  fresh_first_ = std::numeric_limits<SimTime>::infinity();
  fresh_last_ = -std::numeric_limits<SimTime>::infinity();
}

void Database::AppendSetBits(const std::vector<uint64_t>& words,
                             std::vector<ItemId>* out) {
  // Appends land in the caller's reused report scratch (retained capacity).
  // detlint:allow-function(alloc-event-path)
  ItemId found[kFoundFlushAt + 64];
  size_t k = 0;
  const size_t n_words = words.size();
  for (size_t w = 0; w < n_words; ++w) {
    if (words[w] == 0) continue;
    const ItemId base = static_cast<ItemId>(w * 64);
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      found[k++] = base + static_cast<ItemId>(std::countr_zero(bits));
    }
    if (k >= kFoundFlushAt) {
      out->insert(out->end(), found, found + k);
      k = 0;
    }
  }
  out->insert(out->end(), found, found + k);
}

void Database::MergeDirtyWords(SimTime lo, SimTime hi, bool all_inside,
                               std::vector<ItemId>* out) const {
  // Appends land in the caller's reused report scratch (retained capacity).
  // detlint:allow-function(alloc-event-path)
  ItemId found[kFoundFlushAt + 64];
  size_t k = 0;
  uint64_t* fresh = fresh_words_.data();
  uint64_t* older = older_words_.data();
  const size_t n_words = fresh_words_.size();
  for (size_t w = 0; w < n_words; ++w) {
    uint64_t word = fresh[w] | older[w];
    if (word == 0) continue;
    const ItemId base = static_cast<ItemId>(w * 64);
    if (all_inside) {
      for (uint64_t bits = word; bits != 0; bits &= bits - 1) {
        found[k++] = base + static_cast<ItemId>(std::countr_zero(bits));
      }
    } else {
      // Branch-free over the word's set bits: whether an item's latest
      // update predates lo, or falls in the window, is a coin flip the
      // predictor cannot learn, so both outcomes are arithmetic.
      for (uint64_t bits = word; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        const ItemId id = base + static_cast<ItemId>(b);
        const SimTime t = hot_[id].last_update;
        word &= ~(uint64_t{t <= lo} << b);
        found[k] = id;
        k += static_cast<size_t>((t > lo) & (t <= hi));
      }
    }
    older[w] = word;
    fresh[w] = 0;
    if (k >= kFoundFlushAt) {
      out->insert(out->end(), found, found + k);
      k = 0;
    }
  }
  out->insert(out->end(), found, found + k);
}

size_t Database::FirstLiveAfter(SimTime t) const {
  const auto live = log_times_.begin() + static_cast<ptrdiff_t>(log_head_);
  return static_cast<size_t>(
      std::upper_bound(live, log_times_.end(), t) - log_times_.begin());
}

std::vector<UpdatedItem> Database::JournalIn(SimTime lo, SimTime hi) const {
  assert(journal_enabled() && "raw log scan without a raw log");
  assert(lo >= pruned_through_ && "raw log scan reaches before the prune");
  std::vector<UpdatedItem> out;
  if (hi <= lo) return out;
  const size_t end = log_times_.size();
  for (size_t i = FirstLiveAfter(lo); i < end && log_times_[i] <= hi; ++i) {
    out.push_back(UpdatedItem{log_ids_[i], log_times_[i]});
  }
  return out;
}

uint64_t Database::VersionAt(ItemId id, SimTime t) const {
  assert(id < n_);
  assert(journal_enabled() && "historical read without a raw log");
  assert(t >= pruned_through_ && "historical read reaches before the prune");
  // Every update after t is still in the log: the version as of t is the
  // current one less those.
  uint64_t after = 0;
  for (size_t i = FirstLiveAfter(t); i < log_ids_.size(); ++i) {
    after += log_ids_[i] == id ? 1 : 0;
  }
  assert(hot_[id].version >= after);
  return hot_[id].version - after;
}

uint64_t Database::ValueAt(ItemId id, SimTime t) const {
  return SyntheticValue(seed_, id, VersionAt(id, t));
}

void Database::PruneJournalBefore(SimTime horizon) {
  pruned_through_ = std::max(pruned_through_, horizon);
  const size_t cut = FirstLiveAfter(horizon);
  if (cut == log_head_) return;
  SyncJournalBytesPeak();
  journal_bytes_ -= kRawEntryBytes * (cut - log_head_);
  log_head_ = cut;
  // Drop the dead prefix in place once it is more than half the log: an
  // amortized element move per entry, and the capacity stays.
  if (2 * log_head_ > log_times_.size()) {
    const auto dead = static_cast<ptrdiff_t>(log_head_);
    log_times_.erase(log_times_.begin(), log_times_.begin() + dead);
    log_ids_.erase(log_ids_.begin(), log_ids_.begin() + dead);
    log_head_ = 0;
  }
}

}  // namespace mobicache
