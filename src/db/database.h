// Server-side database substrate: n named items with synthetic 64-bit
// values, per-item update timestamps, and the update history that answers
// the window queries the invalidation-report builders need ("which items
// changed in (lo, hi], and when was each one's last change?"). Window
// queries have set semantics (Eq. 1/2): each id at most once, however many
// of its updates share one SimTime.
//
// Hot-path layout: the per-item state the update and report paths touch —
// version and last-update time — lives in a 64-byte-aligned slab of 16-byte
// records, four per cache line, so the random per-update access costs at
// most one line and a window walk reads four items per prefetched line.
// The value payload is not stored at all: SyntheticValue(seed, id, version)
// is a pure function of state the slab already holds, so reads derive it on
// demand and updates never touch value bytes.
//
// One engine answers every window query: the dirty set, armed under both
// classes that keep history (kDirtySet and kFullWindow). It is two n-bit
// sets. The fresh set holds every item updated since the last window query;
// the older set holds the bits no query has cleared yet, each that of an
// item whose latest update lies above that query's lo. Three times are
// recorded: the first and the latest update since the last query (by the
// apply path), and the latest update as of the last query (by the query).
// Queries' lo never decreases (asserted through a watermark) — every report
// builder moves its window forward — and every applied update is at or
// before the latest applied time, so a query (lo, hi] answers from the bits
// alone — no slab read — whenever the times prove it:
//
//  * every fresh item is inside the window when the first fresh time is
//    above lo and the latest fresh time is at or below hi;
//  * every older-only item is outside when the latest update as of the last
//    query is at or below lo (its bit can be cleared);
//  * every older-only item is inside when lo equals the last query's lo and
//    the latest update as of that query is at or below hi: every bit that
//    survives a query lies above that query's lo. This is the same window
//    asked again.
//
// The answer is then the fresh bits, or fresh | older. Otherwise the query
// falls back to the exact walk: over the union's set bits in id order,
// reading each item's last-update time from the slab, clearing it at or
// before lo and emitting it inside (lo, hi]. Either way the query leaves
// its surviving bits (each above lo) in the older set and zeroes the fresh
// set, so a bit is only ever cleared for an item whose latest update lies
// at or before a past — hence the current — lo, and a later update sets it
// again: the answer is exact, and repeating a query is idempotent. Answers
// are id-sorted by construction, with no sort and no merge.
//
// Cost. In steady state (one window per broadcast, (T_i - L, T_i], its
// updates drained before T_i) every query answers bitwise with the older
// bits proven outside: the answer is the fresh set, listed in one pass over
// its ceil(n/64) words, and the fresh set becomes the older one by a swap
// and a zeroing pass. A repeated window (fresh | older) and the fallback
// are one pass over both sets' 2 * ceil(n/64) words, and the fallback adds
// one slab read per set bit.
//
// The raw log (kFullWindow only) is an append-only ring of time buckets
// (one per broadcast interval once SetJournalBucketWidth is wired by the
// server), each holding parallel time/id arrays. Window queries never read
// it: it serves the historical reads alone — JournalIn (every update in a
// window, for the adaptive TS controller) and VersionAt/ValueAt (quasi-AT
// and answer-observer audits). Pruning drops whole buckets and recycles
// their storage into a small free list, so the steady state (one bucket
// appended, one pruned per interval) allocates nothing.
//
// No retention (kNone, no-caching): no raw log and no bit set. A window
// query then has no history to consult and answers empty; the raw readers
// (JournalIn, VersionAt) assert the log is live.

#ifndef MOBICACHE_DB_DATABASE_H_
#define MOBICACHE_DB_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/status.h"

namespace mobicache {

/// Dense item identifier in [0, n).
using ItemId = uint32_t;

/// Derives the synthetic value of (`seed`, `id`, `version`). Exposed so
/// tests and clients can verify cache contents against the ground truth.
uint64_t SyntheticValue(uint64_t seed, ItemId id, uint64_t version);

/// Snapshot of one database item, as returned by Get(). The value is derived
/// on demand (see the file comment); the authoritative storage is the hot
/// slab's (version, last_update) pair.
struct ItemState {
  uint64_t value = 0;     ///< Synthetic value; changes on every update.
  uint64_t version = 0;   ///< Number of updates applied so far.
  SimTime last_update = 0.0;  ///< Time of the most recent update (0 if none).
};

/// An (item, last-update-time) pair returned by window queries.
struct UpdatedItem {
  ItemId id = 0;
  SimTime updated_at = 0.0;
};

/// How much update history the database must retain for the strategy it
/// serves. Strategies declare their class (ServerStrategy::retention) and
/// Server::Start arms the database accordingly:
///
///  * kNone        — no history at all. The strategy never issues a window
///                   query (no-caching); every bit or log append would be
///                   pure overhead on the hottest path. Window queries
///                   answer empty.
///  * kDirtySet    — the dirty set's two n-bit sets only: the items updated
///                   since the last window query and those no query has
///                   cleared yet (see the file comment). Serves UpdatedIn
///                   and UpdatedIdsIn exactly as long as the queries' lo
///                   never decreases, which every report builder's does
///                   (TS, AT, grouped AT, SIG, hybrid).
///  * kFullWindow  — the bits plus the raw bucket log, for the historical
///                   reads (JournalIn, VersionAt/ValueAt) of adaptive TS,
///                   quasi-AT, and any cell whose answer observer audits
///                   historical values. Window queries never read the log.
///                   The default.
///
/// The order is by what each class can answer (a floor raises the class
/// with std::max): kFullWindow serves every query the others do.
enum class JournalRetention : uint8_t {
  kNone,
  kDirtySet,
  kFullWindow,
};

/// Short name for bench/JSON output ("none", "dirty", "full").
const char* JournalRetentionName(JournalRetention retention);

/// The replicated database held by the stationary server. Single-writer (the
/// server applies all updates, per the paper's §2 assumption).
class Database {
 public:
  /// Creates `n` items (n >= 1) with deterministic initial values derived
  /// from `seed`.
  Database(uint64_t n, uint64_t seed);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  uint64_t size() const { return n_; }

  /// Snapshot of an item's state. `id` must be < size(). Derives the value;
  /// hot-path callers that need a single field should use ValueOf /
  /// VersionOf / LastUpdateOf instead.
  ItemState Get(ItemId id) const {
    const HotItem& item = hot_[id];
    return ItemState{SyntheticValueFor(id, item.version), item.version,
                     item.last_update};
  }

  /// Current synthetic value of `id` (derived, not stored).
  uint64_t ValueOf(ItemId id) const {
    return SyntheticValueFor(id, hot_[id].version);
  }
  /// Number of updates applied to `id` so far.
  uint64_t VersionOf(ItemId id) const { return hot_[id].version; }
  /// Time of `id`'s most recent update (0 if none).
  SimTime LastUpdateOf(ItemId id) const { return hot_[id].last_update; }

  /// Applies one update to `id` at time `now`: a batch of one (see
  /// ApplyUpdateBatch). `now` must be monotonically non-decreasing across
  /// calls.
  void ApplyUpdate(ItemId id, SimTime now) { ApplyUpdateBatch(&id, &now, 1); }

  /// Applies `count` updates: the SIMD slab apply (version bump and
  /// timestamp per entry, in order), then the raw log append (kFullWindow),
  /// then the dirty bits, then the observer once per entry, in order.
  /// `times` must be non-decreasing and continue the log's tail. The update
  /// generator's sink.
  void ApplyUpdateBatch(const ItemId* ids, const SimTime* times,
                        size_t count);

  /// Hints that `id` will be updated soon. With millions of items the
  /// per-update random access to the hot slab misses every cache level; a
  /// caller that knows the id ahead of time (the update generator draws it
  /// ahead of its pump) can hide that miss behind the intervening work.
  void PrefetchItem(ItemId id) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&hot_[id], /*rw=*/1, /*locality=*/1);
#else
    (void)id;
#endif
  }

  /// Long-range variant of PrefetchItem for callers that know an id a whole
  /// lookahead block (~hundreds of updates) before it is applied: request
  /// the slab line into the outer levels (T1 hint) without competing for L1
  /// the way the short-range apply-loop prefetch does.
  void PrefetchItemFar(ItemId id) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&hot_[id], /*rw=*/1, /*locality=*/2);
#else
    (void)id;
#endif
  }

  /// Items whose *last* update falls in (lo, hi], each reported once with
  /// its latest update time, in increasing id order, into a caller-owned
  /// buffer (cleared first). This is exactly the report-list definition
  /// used by TS (Eq. 1) and AT (Eq. 2): UpdatedIdsIn plus one slab read per
  /// listed id. `lo` must not decrease across calls (asserted); with no
  /// history kept (kNone) the answer is empty. Reusing one buffer across
  /// intervals keeps the per-report allocation count flat.
  void UpdatedIn(SimTime lo, SimTime hi, std::vector<UpdatedItem>* out) const;

  /// The ids of UpdatedIn(lo, hi), in the same increasing id order, into a
  /// caller-owned buffer (cleared first). A steady-state window answers
  /// from the bit sets with no per-item time read (see the file comment);
  /// this is what the AT and SIG families' builders use.
  void UpdatedIdsIn(SimTime lo, SimTime hi, std::vector<ItemId>* out) const;

  /// Raw update events (every update, not just the last per item) with time
  /// in (lo, hi], ascending by time, read from the raw log. Used by the
  /// adaptive controller to reconstruct per-item update histories for
  /// hit-ratio estimation.
  std::vector<UpdatedItem> JournalIn(SimTime lo, SimTime hi) const;

  /// Version of `id` as of time `t` (inclusive), reconstructed from the
  /// raw log. Only valid while the log still covers (t, now] for this
  /// item — i.e. t must not predate the prune horizon. Used by tests and
  /// benches to verify cache contents against historical ground truth.
  uint64_t VersionAt(ItemId id, SimTime t) const;

  /// Value of `id` as of time `t` (see VersionAt's journal caveat).
  uint64_t ValueAt(ItemId id, SimTime t) const;

  uint64_t seed() const { return seed_; }

  /// Drops raw log entries with time <= `horizon`. Historical readers never
  /// look further back than the largest report window, so the server
  /// prunes periodically to bound memory. Dropped buckets' storage is
  /// recycled.
  void PruneJournalBefore(SimTime horizon);

  uint64_t total_updates() const { return total_updates_; }
  size_t journal_size() const { return journal_entries_; }

  /// Arms the retention class the strategy declared (see JournalRetention).
  /// A new database holds kFullWindow's bits and raw log; kDirtySet drops
  /// the log, kNone drops both. History once dropped cannot be recovered,
  /// so raising the class is only allowed before any update (asserted).
  /// Without the raw log the raw readers (JournalIn, VersionAt) assert, so
  /// misuse fails loudly in debug builds. Call before any updates flow; the
  /// server wires it in Start().
  void SetRetention(JournalRetention retention);
  JournalRetention retention() const { return retention_; }

  /// History storage held right now / at its high-water mark over the run,
  /// in bytes: 2 * ceil(n/8) for the bit sets under both history classes,
  /// plus 12 per raw log entry (time + id) under kFullWindow. A class armed
  /// before the first update restarts the peak.
  uint64_t journal_bytes() const { return journal_bytes_; }
  /// Window queries answered from the bit sets alone, without the
  /// time-reading walk (see the file comment). A diagnostic count.
  uint64_t dirty_bitwise_queries() const { return dirty_bitwise_queries_; }
  uint64_t journal_bytes_peak() const {
    return journal_bytes_ > journal_bytes_peak_ ? journal_bytes_
                                                : journal_bytes_peak_;
  }

  /// Sets the bucket width (normally the broadcast latency L; 0 keeps the
  /// whole journal in one bucket). Existing entries are re-bucketed, so this
  /// may be called at any time; the server wires it before starting the
  /// broadcast schedule.
  void SetJournalBucketWidth(SimTime width);
  SimTime journal_bucket_width() const { return bucket_width_; }

  /// Installs a callback invoked after every applied update (ApplyUpdate
  /// and each entry of ApplyUpdateBatch, in order). Used by the cell's
  /// update trace, which the ideal, stateful-server and async baselines
  /// react to instead of building periodic reports. One slot: installing
  /// replaces the previous callback; pass nullptr to remove.
  void SetUpdateObserver(std::function<void(ItemId, SimTime)> observer) {
    observer_ = std::move(observer);
  }

 private:
  /// Hot per-item state: exactly 16 bytes, four per cache line in the
  /// 64-byte-aligned slab, so a record never straddles a line boundary.
  struct alignas(16) HotItem {
    uint64_t version = 0;
    SimTime last_update = 0.0;
  };
  static_assert(sizeof(HotItem) == 16, "hot record must pack 4 per line");

  /// Whether updates append to the raw log (kFullWindow only).
  bool journal_enabled() const {
    return retention_ == JournalRetention::kFullWindow;
  }
  /// Whether the dirty set is armed (both history classes).
  bool dirty_armed() const { return retention_ != JournalRetention::kNone; }
  /// The bit sets' footprint: two sets of n bits.
  uint64_t DirtySetBytes() const { return 2 * ((n_ + 7) / 8); }

  /// One bucket of the raw log ring, covering times in
  /// (index * width, (index + 1) * width]. Parallel SoA arrays: times is
  /// ascending; ids[i] is the item updated at times[i].
  struct Bucket {
    int64_t index = 0;
    std::vector<SimTime> times;
    std::vector<ItemId> ids;

    bool HasEntries() const { return !times.empty(); }
    SimTime FirstTime() const { return times.front(); }
    SimTime LastTime() const { return times.back(); }
  };

  /// FIFO of journal buckets over a flat vector: pop_front leaves a dead
  /// prefix behind and the push path compacts it away with element moves
  /// once it dominates. Unlike a deque there are no chunk nodes to churn, so
  /// the steady state (one bucket pushed, one popped per interval, storage
  /// recycled through the spare list) performs zero heap allocations.
  class BucketFifo {
   public:
    bool empty() const { return head_ == store_.size(); }
    size_t size() const { return store_.size() - head_; }
    Bucket& front() { return store_[head_]; }
    const Bucket& front() const { return store_[head_]; }
    Bucket& back() { return store_.back(); }
    const Bucket& back() const { return store_.back(); }
    Bucket* begin() { return store_.data() + head_; }
    Bucket* end() { return store_.data() + store_.size(); }
    const Bucket* begin() const { return store_.data() + head_; }
    const Bucket* end() const { return store_.data() + store_.size(); }

    Bucket& emplace_back() {
      MaybeCompact();
      return store_.emplace_back();
    }
    void push_back(Bucket&& bucket) {
      MaybeCompact();
      store_.push_back(std::move(bucket));
    }
    /// Drops the front bucket (the caller has already salvaged its storage
    /// via RecycleBucket); the shell stays behind until compaction.
    void pop_front() { ++head_; }
    void clear() {
      store_.clear();
      head_ = 0;
    }

   private:
    void MaybeCompact() {
      if (head_ == store_.size()) {
        store_.clear();
        head_ = 0;
      } else if (head_ > 8 && head_ * 2 > store_.size()) {
        store_.erase(store_.begin(),
                     store_.begin() + static_cast<ptrdiff_t>(head_));
        head_ = 0;
      }
    }

    std::vector<Bucket> store_;
    size_t head_ = 0;
  };

  uint64_t SyntheticValueFor(ItemId id, uint64_t version) const {
    return SyntheticValue(seed_, id, version);
  }
  int64_t BucketIndexFor(SimTime t) const;
  void AppendJournal(ItemId id, SimTime now);
  /// Time of the newest journal entry (assert support for the monotonic
  /// append contract). Journal must be non-empty.
  SimTime JournalTailTime() const {
    return buckets_.back().LastTime();
  }
  /// Appends a fresh bucket with `index`, reusing recycled storage when
  /// available and reserving twice the high-water raw entry count.
  void PushBucket(int64_t index);
  /// Saves a drained bucket's storage in the spare list (bounded).
  void RecycleBucket(Bucket* bucket);
  /// Sets the fresh bits of `count` updated ids and folds their times
  /// (non-decreasing) into the fresh-interval bounds.
  void MarkDirty(const ItemId* ids, const SimTime* times, size_t count);
  /// The window query (see the file comment): answers bitwise when the
  /// recorded times prove the answer, else walks the set bits reading
  /// update times. Appends the items last updated in (lo, hi] to `out` in
  /// id order. Requires lo < hi and lo at or past every earlier query's lo.
  void QueryDirtySet(SimTime lo, SimTime hi, std::vector<ItemId>* out) const;
  /// Appends the ids of `words`' set bits to `out`, in id order.
  static void AppendSetBits(const std::vector<uint64_t>& words,
                            std::vector<ItemId>* out);
  /// One pass over fresh | older: keeps each set bit whose item lies above
  /// lo in the older set (every one when `all_inside`, else by its slab
  /// time), zeroes the fresh set and appends the items in (lo, hi] to
  /// `out`.
  void MergeDirtyWords(SimTime lo, SimTime hi, bool all_inside,
                       std::vector<ItemId>* out) const;

  /// Folds the current byte count into the peak watermark. Bytes grow
  /// monotonically between prunes, so calling this right before any
  /// decrement (prune, class change) keeps the stored peak exact without a
  /// compare on every append.
  void SyncJournalBytesPeak() {
    if (journal_bytes_ > journal_bytes_peak_) {
      journal_bytes_peak_ = journal_bytes_;
    }
  }

  uint64_t n_ = 0;
  HotItem* hot_ = nullptr;  ///< 64-byte-aligned slab of n_ records.
  BucketFifo buckets_;  // ascending index; times never empty
  std::vector<Bucket> spare_buckets_;  ///< Recycled storage (bounded).
  size_t journal_entries_ = 0;
  /// History bytes held now / at peak (see journal_bytes_peak()).
  uint64_t journal_bytes_ = 0;
  uint64_t journal_bytes_peak_ = 0;
  SimTime bucket_width_ = 0.0;
  JournalRetention retention_ = JournalRetention::kFullWindow;
  /// High-water raw entry count across sealed buckets. Newly opened buckets
  /// reserve twice this, so steady-state appends stay allocation-free: a
  /// realloc needs one bucket to double the record.
  size_t raw_high_water_ = 0;
  uint64_t total_updates_ = 0;
  uint64_t seed_;
  std::function<void(ItemId, SimTime)> observer_;
  /// UpdatedIn scratch: the ids query, then each id's time. `mutable`
  /// because window queries only run in the single-threaded server phase.
  mutable std::vector<ItemId> ids_scratch_;
  /// Dirty-set state (see the file comment): bit j of fresh_words_ is set
  /// when item j was updated since the last query; bit j of older_words_
  /// while a query left it set. Empty under kNone. `mutable`: queries move
  /// and clear bits.
  mutable std::vector<uint64_t> fresh_words_;
  mutable std::vector<uint64_t> older_words_;
  /// First and latest update time since the last query (+inf / -inf while
  /// none), and the latest update time as of the last query.
  mutable SimTime fresh_first_ = std::numeric_limits<SimTime>::infinity();
  mutable SimTime fresh_last_ = -std::numeric_limits<SimTime>::infinity();
  mutable SimTime settled_last_ = -std::numeric_limits<SimTime>::infinity();
  /// Largest lo any dirty-set query has used: the exactness watermark.
  mutable SimTime dirty_floor_ = -std::numeric_limits<SimTime>::infinity();
  mutable uint64_t dirty_bitwise_queries_ = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_DB_DATABASE_H_
