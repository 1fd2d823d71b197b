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
// most one line and a prefetched line serves the digest walk four items at a
// time. The value payload is not stored at all: SyntheticValue(seed, id,
// version) is a pure function of state the slab already holds, so reads
// derive it on demand and updates never touch value bytes.
//
// The journal is a ring of time buckets (one per broadcast interval once
// SetJournalBucketWidth is wired by the server), each holding parallel
// time/id arrays (SoA: window scans walk times without dragging ids through
// the cache). A bucket that the clock has moved past is sealed; the first
// window query that fully covers a sealed bucket builds its per-id digest —
// each id once, at its latest in-bucket update time, id-sorted — exactly
// once, so report builders splice k sealed digests instead of re-scanning
// and re-sorting k*L seconds of raw entries per report, while workloads that
// never query the journal (no-caching cells) never pay for digests at all.
// Pruning drops whole buckets and recycles their storage into a small free
// list, so the steady state (one bucket appended, one pruned per interval)
// allocates nothing.
//
// Quiet-stretch journal elision: a strategy whose update feed makes it
// journal-quiescent (SIG/hybrid — they never window-query once the dirty-set
// observer is attached) lets the server arm EnableJournalElision +
// SetJournalElideHint around elided broadcast intervals. Buckets opened
// under the hint skip the raw time/id arrays entirely and maintain the
// digest directly — each id once at its latest in-bucket time, deduplicated
// in place through an epoch-tagged per-item mark — plus the raw entry count
// and per-entry slab versions, a summary sufficient to serve any late
// window query (the digest filtered by window and is-still-latest equals
// the raw scan's output exactly). The raw readers (JournalIn, VersionAt)
// assert they never meet an elided bucket; the server only arms elision for
// strategies that cannot reach them.
//
// Dirty-set retention (kDirtySet, the AT family): no journal at all, just
// one bit per item, set by every update of the item and cleared lazily by a
// window query (lo, hi] that finds the item's latest update at or before
// lo. A query walks the set bits in id order, reading each item's
// last-update time from the slab: at or before lo clears the bit, inside
// (lo, hi] emits the item — id-sorted by construction, no sort, no merge.
// Invariant: lo never decreases across queries (asserted through a
// watermark). Then a bit is only ever cleared for an item whose latest
// update lies at or before a past — hence the current — lo, and a later
// update sets it again, so every item whose latest update lies in (lo, hi]
// still has its bit set: the answer is exact. Repeating a query is
// idempotent. A query costs one pass over the n/64 words plus one slab read
// per set bit.

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
/// Server::Start arms the database accordingly, replacing the old
/// per-call-site SetJournalEnabled/EnableJournalElision guesswork:
///
///  * kNone        — no journal at all. The strategy never issues a window
///                   query (no-caching); every journal append would be pure
///                   overhead on the hottest path.
///  * kDirtySet    — no journal; an n-bit set of items updated since a
///                   window query last cleared them (see the file comment).
///                   Serves UpdatedIn/CountUpdatedIn exactly as long as the
///                   queries' lo never decreases — the AT family's one
///                   window per broadcast, (T_i - L, T_i]. Bits are cleared
///                   lazily, by the first query whose lo has passed the
///                   item's latest update.
///  * kDigestOnly  — per-interval digests only, no raw entries. The strategy
///                   consumes updates through an attached feed and never
///                   reads JournalIn/VersionAt (SIG, hybrid), so buckets can
///                   stay in the elided representation permanently.
///  * kFullWindow  — raw entries over the report window (TS, adaptive TS,
///                   quasi-AT, and any cell whose answer observer audits
///                   historical values). The default; quiet-stretch
///                   elision still applies where the server proves it safe.
///
/// The order is by what each class can answer (a floor raises the class
/// with std::max): a kFullWindow journal serves every query the others do.
enum class JournalRetention : uint8_t {
  kNone,
  kDirtySet,
  kDigestOnly,
  kFullWindow,
};

/// Short name for bench/JSON output ("none", "dirty", "digest", "full").
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

  /// Applies one update to `id` at time `now`: bumps the version, stamps the
  /// time, and journals the change. `now` must be monotonically
  /// non-decreasing across calls.
  void ApplyUpdate(ItemId id, SimTime now);

  /// Applies `count` updates in one pass: a prefetched walk over the hot
  /// slab with the same per-update effects (version bump, timestamp,
  /// journal append or dirty bit, observer dispatch, in order) as `count`
  /// ApplyUpdate calls. `times` must be non-decreasing and continue the
  /// journal's tail. The batched update kernel's sink (UpdateGenerator
  /// batch mode).
  void ApplyUpdateBatch(const ItemId* ids, const SimTime* times,
                        size_t count);

  /// Hints that `id` will be updated soon. With millions of items the
  /// per-update random access to the hot slab misses every cache level; a
  /// caller that knows the id ahead of time (the update generator samples it
  /// one event early) can hide that miss behind the intervening event
  /// dispatches. Also touches the journal's append cursor, which the same
  /// update will write.
  void PrefetchItem(ItemId id) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&hot_[id], /*rw=*/1, /*locality=*/1);
    // Next journal write slots, cached as raw cursors by AppendJournal —
    // touching the tail through the deque here would cost more than the
    // prefetch saves. Null before the first append; prefetch never faults.
    __builtin_prefetch(append_times_cursor_, /*rw=*/1, /*locality=*/1);
    __builtin_prefetch(append_ids_cursor_, /*rw=*/1, /*locality=*/1);
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
  /// its latest update time, in increasing id order. This is exactly the
  /// report-list definition used by TS (Eq. 1) and AT (Eq. 2). Under
  /// kDirtySet retention `lo` must not decrease across calls (asserted).
  std::vector<UpdatedItem> UpdatedIn(SimTime lo, SimTime hi) const;

  /// Same window query into a caller-owned buffer (cleared first). Report
  /// builders run once per interval; reusing one buffer across intervals
  /// keeps the per-report allocation count flat.
  void UpdatedIn(SimTime lo, SimTime hi, std::vector<UpdatedItem>* out) const;

  /// Number of distinct items whose last update lies in (lo, hi].
  uint64_t CountUpdatedIn(SimTime lo, SimTime hi) const;

  /// Raw update events (every update, not just the last per item) with time
  /// in (lo, hi], ascending by time. Used by the adaptive controller to
  /// reconstruct per-item update histories for hit-ratio estimation.
  std::vector<UpdatedItem> JournalIn(SimTime lo, SimTime hi) const;

  /// Version of `id` as of time `t` (inclusive), reconstructed from the
  /// journal. Only valid while the journal still covers (t, now] for this
  /// item — i.e. t must not predate the prune horizon. Used by tests and
  /// benches to verify cache contents against historical ground truth.
  uint64_t VersionAt(ItemId id, SimTime t) const;

  /// Value of `id` as of time `t` (see VersionAt's journal caveat).
  uint64_t ValueAt(ItemId id, SimTime t) const;

  uint64_t seed() const { return seed_; }

  /// Drops journal entries with time <= `horizon`. Builders never look
  /// further back than the largest report window, so the server prunes
  /// periodically to bound memory. Dropped buckets' storage is recycled.
  void PruneJournalBefore(SimTime horizon);

  uint64_t total_updates() const { return total_updates_; }
  size_t journal_size() const { return journal_entries_; }

  /// Arms the retention class the strategy declared (see JournalRetention):
  /// kNone disables the journal, kDirtySet disables it and allocates the
  /// per-item bit set (once, before any update — the set cannot recover
  /// earlier ones; asserted), kDigestOnly arms elision and forces the
  /// elide hint permanently on, kFullWindow keeps the default raw-bucket
  /// journal (quiet-stretch elision may still be armed separately). Call
  /// before any updates flow; the server wires it in Start().
  void SetRetention(JournalRetention retention);
  JournalRetention retention() const { return retention_; }

  /// Primary journal storage held right now / at its high-water mark over
  /// the run, in bytes: 12 per raw entry (time + id), 24 per digest entry
  /// (UpdatedItem + recorded version) in elided buckets, ceil(n/8) for the
  /// kDirtySet bit set. Derived digests of raw buckets are query caches, not
  /// retention, and are excluded.
  uint64_t journal_bytes() const { return journal_bytes_; }
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

  /// Disables (or re-enables) the update journal. A no-caching cell builds
  /// empty reports and never issues a window query, so journaling its update
  /// stream — two appends plus a prune per interval — is pure overhead on
  /// the hottest path in the simulator. Disabling drops any existing
  /// entries; the history readers (UpdatedIn, JournalIn, VersionAt) assert
  /// the journal is live, so misuse fails loudly in debug builds.
  void SetJournalEnabled(bool enabled);
  bool journal_enabled() const { return journal_enabled_; }

  /// Arms quiet-stretch journal elision (see the file comment): pre-sizes
  /// the per-item dedup marks so the elided append path never allocates.
  /// The caller (the server) must guarantee no raw journal reader
  /// (JournalIn, VersionAt) ever runs against this database afterwards.
  void EnableJournalElision();
  bool journal_elision_enabled() const { return !elide_marks_.empty(); }

  /// While the hint is set (and elision is armed), buckets opened by
  /// appends store the digest-only summary instead of raw entries. The
  /// server toggles this per interval: on after an elided quiet broadcast,
  /// off otherwise. Takes effect at the next bucket boundary; an already
  /// open bucket keeps its representation. Under kDigestOnly retention the
  /// hint is pinned on — the strategy declared it never reads raw entries,
  /// so every bucket elides regardless of the per-interval toggle.
  void SetJournalElideHint(bool elide) {
    elide_hint_ = elide || retention_ == JournalRetention::kDigestOnly;
  }
  bool journal_elide_hint() const { return elide_hint_; }

  /// Journal buckets stored digest-only since construction (diagnostic).
  uint64_t elided_journal_buckets() const { return elided_buckets_; }

  /// Installs a callback invoked after every ApplyUpdate. Used by the
  /// stateful-server baseline, which reacts to individual updates instead of
  /// building periodic reports. Pass nullptr to remove.
  void SetUpdateObserver(std::function<void(ItemId, SimTime)> observer) {
    observer_ = std::move(observer);
    RebuildObserverFastPath();
  }

  /// Adds a further update callback (the report strategies' incremental
  /// feeds); unlike the single SetUpdateObserver slot these accumulate.
  void AddUpdateObserver(std::function<void(ItemId, SimTime)> observer) {
    extra_observers_.push_back(std::move(observer));
    RebuildObserverFastPath();
  }

  /// Removes every observer installed via AddUpdateObserver.
  void ClearExtraObservers() {
    extra_observers_.clear();
    RebuildObserverFastPath();
  }

 private:
  /// Hot per-item state: exactly 16 bytes, four per cache line in the
  /// 64-byte-aligned slab, so a record never straddles a line boundary.
  struct alignas(16) HotItem {
    uint64_t version = 0;
    SimTime last_update = 0.0;
  };
  static_assert(sizeof(HotItem) == 16, "hot record must pack 4 per line");

  /// One bucket of the journal ring, covering times in
  /// (index * width, (index + 1) * width]. Parallel SoA arrays: times is
  /// ascending; ids[i] is the item updated at times[i].
  struct Bucket {
    int64_t index = 0;
    std::vector<SimTime> times;
    std::vector<ItemId> ids;
    /// Built lazily on the first fully-covering window query of a sealed
    /// bucket: each id once at its latest in-bucket time, ascending by id.
    /// `mutable` because the build is a cache fill under const query
    /// methods. Elided (digest_only) buckets maintain it directly instead
    /// of the raw arrays — append order while open, id-sorted in place by
    /// the first UpdatedIn after sealing.
    mutable std::vector<UpdatedItem> digest;
    mutable bool digest_built = false;
    bool sealed = false;  ///< The clock has moved past this bucket.
    /// Elided representation (see the file comment): times/ids stay empty.
    bool digest_only = false;
    /// Slab version written by each digest entry's update, parallel to
    /// `digest` while in append order (the "(count, per-item last-version)"
    /// summary). Dropped when the digest gets id-sorted — queries identify
    /// still-latest entries through the hot slab, not the version.
    mutable std::vector<uint64_t> digest_versions;
    size_t raw_count = 0;       ///< Raw updates absorbed (digest_only).
    SimTime first_time = 0.0;   ///< First/last raw update time
    SimTime last_time = 0.0;    ///< (digest_only; raw buckets use times).

    bool HasEntries() const {
      return digest_only ? raw_count > 0 : !times.empty();
    }
    SimTime FirstTime() const {
      return digest_only ? first_time : times.front();
    }
    SimTime LastTime() const { return digest_only ? last_time : times.back(); }
    size_t EntryCount() const { return digest_only ? raw_count : times.size(); }
  };

  /// FIFO of journal buckets over a flat vector: pop_front leaves a dead
  /// prefix behind and the push path compacts it away with element moves
  /// once it dominates. Unlike a deque there are no chunk nodes to churn, so
  /// the steady state (one bucket pushed, one popped per interval, storage
  /// recycled through the spare list) performs zero heap allocations; moves
  /// never touch the inner arrays, so cached pointers into a bucket's
  /// times/ids storage survive compaction.
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
  /// `version` is the slab version just written for `id` (recorded by the
  /// elided representation; raw buckets ignore it).
  void AppendJournal(ItemId id, SimTime now, uint64_t version);
  /// Digest-only append into the open tail bucket: overwrite the id's
  /// existing entry (epoch-tagged mark hit) or append a new one.
  void AppendJournalElided(ItemId id, SimTime now, uint64_t version);
  /// Time of the newest journal entry (assert support for the monotonic
  /// append contract). Journal must be non-empty.
  SimTime JournalTailTime() const {
    return buckets_.back().LastTime();
  }
  /// In-order observer dispatch shared by ApplyUpdate and the batch path.
  void DispatchUpdateObservers(ItemId id, SimTime now) {
    if (single_observer_ != nullptr) {
      (*single_observer_)(id, now);
    } else if (multi_observers_) {
      if (observer_) observer_(id, now);
      for (const auto& observer : extra_observers_) observer(id, now);
    }
  }
  /// Id-sorts an elided bucket's digest on its first query (the lazy
  /// equivalent of BuildDigest; drops the no-longer-aligned versions).
  static void SortElidedDigest(const Bucket& bucket);
  /// ApplyUpdateBatch specializations: the slab-only walk hands the whole
  /// chunk to the SIMD kernel (no per-entry journal/observer work exists);
  /// the journal walk prefetches the slab line and — when the tail bucket
  /// elides — the dedup-mark line for the same future entry.
  void ApplyBatchSlabOnly(const ItemId* ids, const SimTime* times,
                          size_t count);
  void ApplyBatchJournal(const ItemId* ids, const SimTime* times,
                         size_t count);
  /// Appends a fresh bucket with `index`, reusing recycled storage when
  /// available and reserving `reserve_hint` entries.
  void PushBucket(int64_t index, size_t reserve_hint);
  /// Saves a drained bucket's storage in the spare list (bounded).
  void RecycleBucket(Bucket* bucket);
  static void BuildDigest(const Bucket& bucket);
  void RebuildObserverFastPath();
  /// Sets the kDirtySet bits of `count` updated ids.
  void MarkDirty(const ItemId* ids, size_t count);
  /// The kDirtySet window query (see the file comment): clears the bits of
  /// items last updated at or before `lo`, appends the items last updated
  /// in (lo, hi] to `out` (if non-null) in id order, and returns how many
  /// it found. Requires lo < hi and lo at or past every earlier query's lo.
  uint64_t QueryDirtySet(SimTime lo, SimTime hi,
                         std::vector<UpdatedItem>* out) const;

  /// Folds the current byte count into the peak watermark. Bytes grow
  /// monotonically between prunes, so calling this right before any
  /// decrement (prune, disable) keeps the stored peak exact without a
  /// compare on every append.
  void SyncJournalBytesPeak() {
    if (journal_bytes_ > journal_bytes_peak_) {
      journal_bytes_peak_ = journal_bytes_;
    }
  }

  uint64_t n_ = 0;
  HotItem* hot_ = nullptr;  ///< 64-byte-aligned slab of n_ records.
  BucketFifo buckets_;  // ascending index; times never empty
  /// One-past-the-end of the tail bucket's SoA arrays, refreshed by every
  /// AppendJournal — PrefetchItem's journal-append hint (see above).
  const SimTime* append_times_cursor_ = nullptr;
  const ItemId* append_ids_cursor_ = nullptr;
  std::vector<Bucket> spare_buckets_;  ///< Recycled storage (bounded).
  size_t journal_entries_ = 0;
  /// Primary journal bytes held now / at peak (see journal_bytes_peak()).
  uint64_t journal_bytes_ = 0;
  uint64_t journal_bytes_peak_ = 0;
  SimTime bucket_width_ = 0.0;
  JournalRetention retention_ = JournalRetention::kFullWindow;
  bool journal_enabled_ = true;
  bool elide_hint_ = false;
  uint64_t elided_buckets_ = 0;
  /// Per-item dedup marks for the open elided bucket: high 32 bits hold the
  /// bucket epoch, low 32 the digest slot. A stale epoch is simply a miss,
  /// so switching buckets is O(1). Empty until EnableJournalElision.
  std::vector<uint64_t> elide_marks_;
  uint64_t elide_epoch_ = 0;  ///< Bumped per elided bucket; starts marks stale.
  /// High-water distinct-item count across sealed elided buckets. Newly
  /// opened elided buckets reserve twice this (capped at n), so steady-state
  /// digest appends stay allocation-free: a realloc needs one bucket to
  /// double the record distinct count.
  size_t digest_high_water_ = 0;
  uint64_t total_updates_ = 0;
  uint64_t seed_;
  std::function<void(ItemId, SimTime)> observer_;
  std::vector<std::function<void(ItemId, SimTime)>> extra_observers_;
  /// Exactly-one-observer fast path: points at the lone registered callback
  /// (refreshed on every observer mutation, so vector reallocation cannot
  /// dangle it); null when zero or several observers are registered.
  const std::function<void(ItemId, SimTime)>* single_observer_ = nullptr;
  bool multi_observers_ = false;  ///< Two or more observers registered.
  /// UpdatedIn scratch (segment offsets for the bottom-up merge). `mutable`
  /// cache-fill state like the digests: window queries only run in the
  /// single-threaded server phase.
  mutable std::vector<size_t> merge_starts_;
  /// kDirtySet state (see the file comment): bit j of dirty_words_ is set
  /// while item j may still belong to a window. Empty under other classes.
  /// `mutable` like the digests: queries clear bits lazily.
  mutable std::vector<uint64_t> dirty_words_;
  /// Largest lo any dirty-set query has used: the exactness watermark.
  mutable SimTime dirty_floor_ = -std::numeric_limits<SimTime>::infinity();
  bool dirty_set_ = false;  ///< retention_ == kDirtySet, tested per batch.
};

}  // namespace mobicache

#endif  // MOBICACHE_DB_DATABASE_H_
