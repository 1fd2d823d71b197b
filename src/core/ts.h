// Broadcasting Timestamps (TS, §3.1). The server reports, every L seconds,
// the (id, timestamp) pairs of all items updated in the last w = k*L
// seconds (Eq. 1). A client that heard a report at most k intervals ago can
// revalidate every cached item: an item mentioned with a newer timestamp
// than the cached copy is purged; every other item is re-stamped with the
// report time. A client that slept through more than k intervals drops its
// whole cache.
//
// Every client in a cell that hears broadcast i checks its cache against the
// same report, so the report is decoded once per decoding domain into a
// TsReportIndex (a dense item -> timestamp table) that all of the domain's
// client managers share: each cached item then costs one table read instead
// of a binary search over the report.

#ifndef MOBICACHE_CORE_TS_H_
#define MOBICACHE_CORE_TS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/strategy.h"

namespace mobicache {

/// TS server half: builds Eq. 1 reports over the window w = k*L.
class TsServerStrategy : public ServerStrategy {
 public:
  /// `latency` is L (> 0); `window_intervals` is k (>= 1, so that w >= L).
  TsServerStrategy(const Database* db, SimTime latency,
                   uint64_t window_intervals);

  StrategyKind kind() const override { return StrategyKind::kTs; }
  void BuildReportInto(SimTime now, uint64_t interval, Report* out) override;
  SimTime JournalHorizonSeconds() const override { return window_; }
  /// Each build queries the delta since the previous one, so the window's
  /// lo only moves forward: the dirty set answers it with no raw log.
  JournalRetention retention() const override {
    return JournalRetention::kDirtySet;
  }

  SimTime window() const { return window_; }
  uint64_t window_intervals() const { return window_intervals_; }

 private:
  /// The incremental step of every build: advances `prev_entries_` to the
  /// window ending at `now` — splice the delta since the previous build,
  /// expire — through `next_scratch_`.
  void AdvanceEntries(SimTime now);

  const Database* db_;
  SimTime latency_;
  uint64_t window_intervals_;
  SimTime window_;
  // Previous report, kept so every build is incremental: carry entries
  // forward, expire those older than w, splice in the delta since the
  // previous build — O(|report|) instead of re-scanning the window.
  SimTime prev_now_ = -std::numeric_limits<SimTime>::infinity();
  std::vector<TsReportEntry> prev_entries_;
  // Scratch for Database::UpdatedIn, reused across reports so the steady
  // state builds every report without a fresh delta allocation.
  std::vector<UpdatedItem> delta_scratch_;
  // Merge target that becomes the next prev_entries_ (swapped, so both
  // vectors stay warm across intervals).
  std::vector<TsReportEntry> next_scratch_;
};

/// One decoded TS report: the timestamp the report lists for each item, or
/// kNotMentioned. Shared by every client manager of one decoding domain
/// (one MegaCell shard) — the same one-domain ownership rule as
/// SignatureFamily, and likewise not thread-safe. The table grows lazily to
/// the largest id any report lists (8 bytes per id, bounded by n).
///
/// Relies on the broadcast contract that a cell sends one report per
/// interval: (interval, timestamp) identifies the report's content, so a
/// listener handed the broadcast already bound decodes nothing. Report
/// timestamps are finite and each id is listed at most once (Eq. 1).
class TsReportIndex {
 public:
  static constexpr SimTime kNotMentioned =
      -std::numeric_limits<SimTime>::infinity();

  /// Makes the index describe `report` (a TsReport or AdaptiveTsReport).
  /// Free when it already does; otherwise O(previous + current entries),
  /// never O(n).
  template <typename TsLikeReport>
  void Bind(const TsLikeReport& report) {
    if (bound_ && report.interval == interval_ &&
        report.timestamp == timestamp_) {
      return;
    }
    Decode(report.interval, report.timestamp, report.entries);
  }

  /// The bound report's timestamp for `id`, or kNotMentioned. Since nothing
  /// is older than kNotMentioned, `copy_stamp < At(id)` is exactly the §3.1
  /// "listed with a newer timestamp" test.
  SimTime At(ItemId id) const {
    return id < table_.size() ? table_[id] : kNotMentioned;
  }

 private:
  void Decode(uint64_t interval, SimTime timestamp,
              const std::vector<TsReportEntry>& entries);

  bool bound_ = false;
  uint64_t interval_ = 0;
  SimTime timestamp_ = 0.0;
  std::vector<SimTime> table_;  // by item id; kNotMentioned when unlisted
  std::vector<ItemId> set_ids_;  // ids the bound report set, cleared next
};

/// TS client half: implements the §3.1 client algorithm.
class TsClientManager : public ClientCacheManager {
 public:
  /// `window_intervals` must match the server's k. `shared_index` is the
  /// decoding domain's TsReportIndex and must outlive the manager; null
  /// gives the manager a private one.
  explicit TsClientManager(uint64_t window_intervals,
                           TsReportIndex* shared_index = nullptr);

  StrategyKind kind() const override { return StrategyKind::kTs; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override;
  bool HasValidBaseline() const override { return heard_any_; }

  /// Interval index of the last report heard (T_l in the paper); meaningful
  /// only when HasValidBaseline().
  uint64_t last_interval_heard() const { return last_interval_; }

 private:
  uint64_t window_intervals_;
  std::unique_ptr<TsReportIndex> own_index_;  // set when none is shared
  TsReportIndex* index_;
  bool heard_any_ = false;
  uint64_t last_interval_ = 0;
  std::vector<ItemId> victims_;  // scratch, reused across reports
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_TS_H_
