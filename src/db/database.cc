#include "db/database.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <new>
#include <utility>

#include "util/random.h"
#include "util/simd.h"

namespace mobicache {

namespace {

/// Primary storage cost of one raw journal entry: a SimTime and an ItemId in
/// the bucket's parallel SoA arrays.
constexpr uint64_t kRawEntryBytes = sizeof(SimTime) + sizeof(ItemId);

/// Lines of slack the digest walk prefetches ahead of the filter cursor —
/// far enough to cover a memory round-trip at 4 digest entries per step,
/// near enough that the line is still resident when the cursor arrives.
constexpr size_t kDigestPrefetchDistance = 8;

/// Entries of slack the batched update walk prefetches ahead of the apply
/// cursor. Each entry touches one random hot-slab line; eight entries of
/// lead time covers a DRAM round-trip.
constexpr size_t kBatchPrefetchDistance = 8;

/// Ids a dirty-set walk gathers in its stack buffer before appending them
/// to the caller's vector: a sparse window then pays one append per block
/// rather than one per set word.
constexpr size_t kFoundFlushAt = 192;

/// Recycled bucket storages kept around after pruning. The server batches
/// pruning (ServerConfig::journal_prune_period_intervals, default 8), so a
/// prune drops that many buckets at once; the bound must absorb the whole
/// burst or the overflow loses its storage and the next appends have to
/// re-allocate it — breaking the allocation-free steady state.
constexpr size_t kMaxSpareBuckets = 32;

/// First index in the ascending `times` with times[i] > t (vector-wide
/// upper bound), as an index rather than an iterator.
size_t FirstAfter(const std::vector<SimTime>& times, SimTime t) {
  return static_cast<size_t>(
      std::upper_bound(times.begin(), times.end(), t) - times.begin());
}

bool ByItemId(const UpdatedItem& a, const UpdatedItem& b) {
  return a.id < b.id;
}

/// False when a later entry of the same id shares entry i's time: two
/// updates of one id at one SimTime are one change under the window
/// queries' set semantics, reported once (at the last entry of the tie).
/// Ties are vanishingly rare, so the scan is one compare in practice.
bool LastOfTie(const std::vector<SimTime>& times,
               const std::vector<ItemId>& ids, size_t i) {
  for (size_t k = i + 1; k < times.size() && times[k] == times[i]; ++k) {
    if (ids[k] == ids[i]) return false;
  }
  return true;
}

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
}

Database::~Database() {
  ::operator delete(hot_, std::align_val_t{64});
}

int64_t Database::BucketIndexFor(SimTime t) const {
  if (bucket_width_ <= 0.0) return 0;
  // Bucket i covers (i * width, (i + 1) * width]: a broadcast at T_i = i*L
  // closes bucket i-1, which then holds exactly the interval's updates.
  const int64_t idx =
      static_cast<int64_t>(std::ceil(t / bucket_width_)) - 1;
  return idx < 0 ? 0 : idx;
}

void Database::BuildDigest(const Bucket& bucket) {
  // Digest materialization runs once per sealed bucket, into bucket-owned
  // vectors that recycle with the bucket; every later query splices the
  // cached result. detlint:allow-function(alloc-event-path)
  std::vector<UpdatedItem>& d = bucket.digest;
  d.clear();
  const size_t n = bucket.times.size();
  d.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    d.push_back(UpdatedItem{bucket.ids[i], bucket.times[i]});
  }
  // Stable by id keeps each id's entries in ascending time order, so the
  // last entry of an id's run holds its latest in-bucket time.
  std::stable_sort(d.begin(), d.end(), ByItemId);
  size_t out = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (i + 1 == d.size() || d[i + 1].id != d[i].id) d[out++] = d[i];
  }
  d.resize(out);
  bucket.digest_built = true;
}

void Database::PushBucket(int64_t index) {
  // The sanctioned bucket-open path: the reservations here (into recycled
  // bucket shells, once per bucket) are exactly what keeps AppendJournal
  // allocation-free once warm. detlint:allow-function(alloc-event-path)
  if (!spare_buckets_.empty()) {
    buckets_.push_back(std::move(spare_buckets_.back()));
    spare_buckets_.pop_back();
    Bucket& b = buckets_.back();
    b.index = index;
    b.times.clear();
    b.ids.clear();
    b.digest.clear();
    b.digest_built = false;
    b.sealed = false;
  } else {
    buckets_.emplace_back();
    buckets_.back().index = index;
  }
  Bucket& b = buckets_.back();
  if (b.times.capacity() < raw_high_water_) {
    // Recycled shells carry whatever capacity their last bucket needed. One
    // below the record is topped up to twice it, so appends stay
    // allocation-free — and shells are not topped up again — until a bucket
    // doubles the record.
    b.times.reserve(2 * raw_high_water_);
    b.ids.reserve(2 * raw_high_water_);
  }
}

void Database::RecycleBucket(Bucket* bucket) {
  if (spare_buckets_.size() >= kMaxSpareBuckets) return;
  // Spare pool is capped at kMaxSpareBuckets shells; the push moves a bucket
  // shell, it does not copy its storage. detlint:allow(alloc-event-path)
  spare_buckets_.push_back(std::move(*bucket));
}

void Database::AppendJournal(ItemId id, SimTime now) {
  const int64_t idx = BucketIndexFor(now);
  if (buckets_.empty()) {
    PushBucket(idx);
  } else if (idx > buckets_.back().index) {
    Bucket& closing = buckets_.back();
    closing.sealed = true;
    raw_high_water_ = std::max(raw_high_water_, closing.times.size());
    PushBucket(idx);
  }
  Bucket& tail = buckets_.back();
  ++journal_entries_;
  // Appends land in capacity reserved at bucket open (twice the raw
  // high-water mark; see PushBucket).
  // detlint:allow(alloc-event-path)
  tail.times.push_back(now);
  tail.ids.push_back(id);  // detlint:allow(alloc-event-path) same reservation
  journal_bytes_ += kRawEntryBytes;
  append_times_cursor_ = tail.times.data() + tail.times.size();
  append_ids_cursor_ = tail.ids.data() + tail.ids.size();
}

void Database::ApplyUpdate(ItemId id, SimTime now) {
  assert(id < n_);
  assert(journal_entries_ == 0 || now >= JournalTailTime());
  HotItem& item = hot_[id];
  ++item.version;
  item.last_update = now;
  if (journal_enabled()) AppendJournal(id, now);
  if (dirty_set_) MarkDirty(&id, &now, 1);
  ++total_updates_;
  if (observer_) observer_(id, now);
}

void Database::ApplyUpdateBatch(const ItemId* ids, const SimTime* times,
                                size_t count) {
  assert(count > 0);
  assert(journal_entries_ == 0 || times[0] >= JournalTailTime());
#ifndef NDEBUG
  // The specialized walks below assume the batch contract wholesale; check
  // it up front so the hot loops stay assertion-free in debug builds too.
  for (size_t i = 0; i < count; ++i) {
    assert(ids[i] < n_);
    assert(i == 0 || times[i] >= times[i - 1]);
  }
#endif
  if (!observer_) {
    if (journal_enabled()) {
      ApplyBatchJournal(ids, times, count);
    } else {
      ApplyBatchSlabOnly(ids, times, count);
    }
    // After the walk: no window query runs inside it. Under kDirtySet the
    // journal is off, so this follows the SIMD kernel.
    if (dirty_set_) MarkDirty(ids, times, count);
  } else {
    for (size_t i = 0; i < count; ++i) {
#if defined(__GNUC__) || defined(__clang__)
      if (i + kBatchPrefetchDistance < count) {
        __builtin_prefetch(&hot_[ids[i + kBatchPrefetchDistance]], /*rw=*/1,
                           /*locality=*/1);
      }
#endif
      const ItemId id = ids[i];
      const SimTime now = times[i];
      HotItem& item = hot_[id];
      ++item.version;
      item.last_update = now;
      if (journal_enabled()) AppendJournal(id, now);
      // Marked before the observer runs, so one that window-queries sees
      // exactly the state a lone ApplyUpdate would leave.
      if (dirty_set_) MarkDirty(&id, &now, 1);
      observer_(id, now);
    }
  }
  total_updates_ += count;
}

void Database::ApplyBatchSlabOnly(const ItemId* ids, const SimTime* times,
                                  size_t count) {
  // Layout-compatible with the SIMD kernel's record view; the kernel's
  // effect (version += 1, time bit-copied, in staging order) is exactly this
  // path's whole per-entry work.
  static_assert(sizeof(HotItem) == sizeof(simd::Record16) &&
                    offsetof(HotItem, version) ==
                        offsetof(simd::Record16, version) &&
                    offsetof(HotItem, last_update) ==
                        offsetof(simd::Record16, time),
                "hot record and SIMD record view must share a layout");
  simd::ApplyVersionTimestamp(reinterpret_cast<simd::Record16*>(hot_), ids,
                              times, count);
}

void Database::ApplyBatchJournal(const ItemId* ids, const SimTime* times,
                                 size_t count) {
  for (size_t i = 0; i < count; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kBatchPrefetchDistance < count) {
      __builtin_prefetch(&hot_[ids[i + kBatchPrefetchDistance]], /*rw=*/1,
                         /*locality=*/1);
    }
#endif
    const ItemId id = ids[i];
    const SimTime now = times[i];
    HotItem& item = hot_[id];
    ++item.version;
    item.last_update = now;
    AppendJournal(id, now);
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
  assert(!dirty_set_ && "kDirtySet is armed once and never left");
  retention_ = retention;
  if (retention == JournalRetention::kFullWindow) return;
  // Neither class keeps the raw journal: drop whatever it holds.
  buckets_.clear();
  spare_buckets_.clear();
  journal_entries_ = 0;
  SyncJournalBytesPeak();
  journal_bytes_ = 0;
  append_times_cursor_ = nullptr;
  append_ids_cursor_ = nullptr;
  if (retention == JournalRetention::kDirtySet) {
    // A bit set only learns of updates applied after it exists.
    assert(total_updates_ == 0 && "arm kDirtySet before any update");
    fresh_words_.assign((n_ + 63) / 64, 0);
    older_words_.assign((n_ + 63) / 64, 0);
    dirty_set_ = true;
    journal_bytes_ = 2 * ((n_ + 7) / 8);
  }
}

void Database::SetJournalBucketWidth(SimTime width) {
  assert(width >= 0.0);
  if (width == bucket_width_) return;
  std::vector<SimTime> all_times;
  std::vector<ItemId> all_ids;
  all_times.reserve(journal_entries_);
  all_ids.reserve(journal_entries_);
  for (const Bucket& bucket : buckets_) {
    all_times.insert(all_times.end(), bucket.times.begin(),
                     bucket.times.end());
    all_ids.insert(all_ids.end(), bucket.ids.begin(), bucket.ids.end());
  }
  bucket_width_ = width;
  buckets_.clear();
  journal_entries_ = 0;
  // Entries survive re-bucketing; the replay below re-adds their bytes.
  journal_bytes_ = 0;
  for (size_t i = 0; i < all_times.size(); ++i) {
    AppendJournal(all_ids[i], all_times[i]);
  }
}

std::vector<UpdatedItem> Database::UpdatedIn(SimTime lo, SimTime hi) const {
  std::vector<UpdatedItem> out;
  UpdatedIn(lo, hi, &out);
  return out;
}

void Database::UpdatedIn(SimTime lo, SimTime hi,
                         std::vector<UpdatedItem>* out) const {
  // Every append below lands in `out` (caller-owned scratch, reused across
  // intervals) or `merge_starts_` (member scratch); both retain capacity, so
  // the steady state allocates nothing. detlint:allow-function(alloc-event-path)
  out->clear();
  // No history kept (kNone): the documented answer is empty.
  if (hi <= lo || retention_ == JournalRetention::kNone) return;
  if (dirty_set_) {
    // The ids query, then each listed item's time from the slab, prefetched
    // a few ids ahead of the read.
    std::vector<ItemId>& ids = ids_scratch_;
    ids.clear();
    QueryDirtySet(lo, hi, &ids);
    const size_t m = ids.size();
    out->reserve(m);
    for (size_t i = 0; i < m; ++i) {
#if defined(__GNUC__) || defined(__clang__)
      if (i + kDigestPrefetchDistance < m) {
        __builtin_prefetch(&hot_[ids[i + kDigestPrefetchDistance]], /*rw=*/0,
                           /*locality=*/1);
      }
#endif
      out->push_back(UpdatedItem{ids[i], hot_[ids[i]].last_update});
    }
    return;
  }
  // Per-bucket id-sorted segments, merged pairwise below.
  std::vector<size_t>& starts = merge_starts_;
  starts.clear();
  for (const Bucket& bucket : buckets_) {
    if (!bucket.HasEntries() || bucket.LastTime() <= lo) continue;
    if (bucket.FirstTime() > hi) break;
    starts.push_back(out->size());
    if (bucket.sealed && lo < bucket.times.front() &&
               bucket.times.back() <= hi) {
      // Whole bucket inside the window: splice the digest (built on the
      // first such query, reused by every later one). The is-still-latest
      // filter reads one random hot-slab line per entry; prefetching a few
      // entries ahead keeps the walk ahead of the misses.
      if (!bucket.digest_built) BuildDigest(bucket);
      const std::vector<UpdatedItem>& d = bucket.digest;
      const size_t m = d.size();
      for (size_t i = 0; i < m; ++i) {
#if defined(__GNUC__) || defined(__clang__)
        if (i + kDigestPrefetchDistance < m) {
          __builtin_prefetch(&hot_[d[i + kDigestPrefetchDistance].id],
                             /*rw=*/0, /*locality=*/1);
        }
#endif
        if (hot_[d[i].id].last_update == d[i].updated_at) out->push_back(d[i]);
      }
    } else {
      const size_t n = bucket.times.size();
      for (size_t i = FirstAfter(bucket.times, lo);
           i < n && bucket.times[i] <= hi; ++i) {
        // Report an item only at its *latest* update; entries later
        // superseded (even past `hi`) are skipped via the hot slab.
        if (hot_[bucket.ids[i]].last_update == bucket.times[i] &&
            LastOfTie(bucket.times, bucket.ids, i)) {
          out->push_back(UpdatedItem{bucket.ids[i], bucket.times[i]});
        }
      }
      std::sort(out->begin() + static_cast<ptrdiff_t>(starts.back()),
                out->end(), ByItemId);
    }
  }
  // An id appears in at most one segment (its last update lives in one
  // bucket), so a bottom-up merge of the segments yields the id order a
  // global sort would.
  while (starts.size() > 1) {
    size_t next = 0;
    for (size_t i = 0; i + 1 < starts.size(); i += 2) {
      const size_t end = (i + 2 < starts.size()) ? starts[i + 2] : out->size();
      std::inplace_merge(out->begin() + static_cast<ptrdiff_t>(starts[i]),
                         out->begin() + static_cast<ptrdiff_t>(starts[i + 1]),
                         out->begin() + static_cast<ptrdiff_t>(end),
                         ByItemId);
      starts[next++] = starts[i];
    }
    if (starts.size() % 2 != 0) starts[next++] = starts[starts.size() - 1];
    starts.resize(next);
  }
}

void Database::UpdatedIdsIn(SimTime lo, SimTime hi,
                            std::vector<ItemId>* out) const {
  // Appends land in `out` (caller-owned, reused across intervals) or member
  // scratch; both retain capacity. detlint:allow-function(alloc-event-path)
  out->clear();
  if (hi <= lo) return;
  if (dirty_set_) {
    QueryDirtySet(lo, hi, out);
    return;
  }
  // The journal classes answer the (id, time) query; project its ids.
  UpdatedIn(lo, hi, &items_scratch_);
  out->reserve(items_scratch_.size());
  for (const UpdatedItem& item : items_scratch_) out->push_back(item.id);
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

std::vector<UpdatedItem> Database::JournalIn(SimTime lo, SimTime hi) const {
  assert(journal_enabled() && "journal scan against a disabled journal");
  std::vector<UpdatedItem> out;
  if (hi <= lo) return out;
  for (const Bucket& bucket : buckets_) {
    if (!bucket.HasEntries() || bucket.LastTime() <= lo) continue;
    if (bucket.FirstTime() > hi) break;
    const size_t n = bucket.times.size();
    for (size_t i = FirstAfter(bucket.times, lo);
         i < n && bucket.times[i] <= hi; ++i) {
      out.push_back(UpdatedItem{bucket.ids[i], bucket.times[i]});
    }
  }
  return out;
}

uint64_t Database::VersionAt(ItemId id, SimTime t) const {
  assert(id < n_);
  assert(journal_enabled() && "historical read against a disabled journal");
  uint64_t after = 0;
  // Updates strictly after t are still in the journal (caller's contract).
  for (const Bucket& bucket : buckets_) {
    if (!bucket.HasEntries() || bucket.LastTime() <= t) continue;
    const size_t n = bucket.times.size();
    for (size_t i = FirstAfter(bucket.times, t); i < n; ++i) {
      if (bucket.ids[i] == id) ++after;
    }
  }
  assert(hot_[id].version >= after);
  return hot_[id].version - after;
}

uint64_t Database::ValueAt(ItemId id, SimTime t) const {
  return SyntheticValue(seed_, id, VersionAt(id, t));
}

void Database::PruneJournalBefore(SimTime horizon) {
  SyncJournalBytesPeak();
  while (!buckets_.empty() && buckets_.front().HasEntries() &&
         buckets_.front().LastTime() <= horizon) {
    const size_t entries = buckets_.front().times.size();
    journal_entries_ -= entries;
    journal_bytes_ -= kRawEntryBytes * entries;
    RecycleBucket(&buckets_.front());
    buckets_.pop_front();
  }
  if (buckets_.empty() || buckets_.front().FirstTime() > horizon) return;
  // Partially covered front bucket: trim the raw prefix and any digest
  // entries that fell with it (a digest entry at or before the horizon can
  // no longer be any surviving entry's latest time).
  Bucket& front = buckets_.front();
  const size_t keep = FirstAfter(front.times, horizon);
  journal_entries_ -= keep;
  journal_bytes_ -= kRawEntryBytes * keep;
  front.times.erase(front.times.begin(),
                    front.times.begin() + static_cast<ptrdiff_t>(keep));
  front.ids.erase(front.ids.begin(),
                  front.ids.begin() + static_cast<ptrdiff_t>(keep));
  if (front.digest_built) {
    front.digest.erase(
        std::remove_if(front.digest.begin(), front.digest.end(),
                       [horizon](const UpdatedItem& d) {
                         return d.updated_at <= horizon;
                       }),
        front.digest.end());
  }
}

}  // namespace mobicache
