// Invalidation report types (paper §2-§3 taxonomy). All reports produced by
// the synchronous stateless strategies are broadcast at interval boundaries
// T_i = i*L and are timestamped with the broadcast initiation time. Their
// airtime cost in bits follows the paper's accounting exactly:
//
//   TS  (history-based, uncompressed): nc * (log n + bT)        (Eq. 16)
//   AT  (history-based, uncompressed): nL * log n               (Eq. 19)
//   SIG (state-based,  compressed):    m * g                    (Eq. 25)

#ifndef MOBICACHE_CORE_REPORT_H_
#define MOBICACHE_CORE_REPORT_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "db/database.h"
#include "net/channel.h"
#include "sim/simulator.h"

namespace mobicache {

/// One TS entry: an item that changed in the window, with the timestamp of
/// its latest change.
struct TsReportEntry {
  ItemId id = 0;
  SimTime updated_at = 0.0;
};

/// Broadcasting Timestamps (§3.1): items updated in the last w seconds.
struct TsReport {
  uint64_t interval = 0;    ///< Report index i (broadcast at T_i = i*L).
  SimTime timestamp = 0.0;  ///< Broadcast initiation time T_i.
  SimTime window = 0.0;     ///< w = k*L.
  std::vector<TsReportEntry> entries;
};

/// Amnesic Terminals (§3.2): ids of items updated since the last report.
struct AtReport {
  uint64_t interval = 0;
  SimTime timestamp = 0.0;
  std::vector<ItemId> ids;
};

/// Signatures (§3.3): the m combined g-bit signatures of the current state.
struct SigReport {
  uint64_t interval = 0;
  SimTime timestamp = 0.0;
  std::vector<uint64_t> combined;
};

/// Per-item window-size announcement used by adaptive TS (§8).
struct WindowChangeEntry {
  ItemId id = 0;
  uint32_t window_intervals = 0;  ///< New per-item window, in units of L.
};

/// Adaptive TS (§8): TS entries under per-item windows, plus the windows
/// that changed recently (re-announced for `ttl` intervals so that sleepers
/// that wake within the maximum window still learn them).
struct AdaptiveTsReport {
  uint64_t interval = 0;
  SimTime timestamp = 0.0;
  std::vector<TsReportEntry> entries;
  std::vector<WindowChangeEntry> window_changes;
  uint32_t window_bits = 8;  ///< Bits used to encode one window value.
};

/// Compressed AT (§2 taxonomy "compressed", §10 "aggregate invalidation
/// reports"): items are partitioned into `num_groups` contiguous blocks and
/// the report carries only the identifiers of blocks containing a change —
/// "there was a change in one or more of the eastbound flights". Smaller
/// reports, coarser (group-level) invalidation.
struct GroupedAtReport {
  uint64_t interval = 0;
  SimTime timestamp = 0.0;
  uint32_t num_groups = 1;        ///< G: the agreed partition size.
  std::vector<uint32_t> groups;   ///< Changed groups, ascending.
};

/// Hybrid SIG (§10 "weighted schemes"): the agreed hot set is invalidated
/// AT-style by explicit identifiers, while the remaining (cold) items
/// participate in the combined signatures. Fixes SIG's syndrome flooding
/// when a few hot items churn faster than the signature design point f.
struct HybridReport {
  uint64_t interval = 0;
  SimTime timestamp = 0.0;
  std::vector<ItemId> hot_ids;     ///< Hot items changed in the last interval.
  std::vector<uint64_t> combined;  ///< Signatures over the cold items only.
};

/// Empty report used by the no-caching baseline (Bc = 0).
struct NullReport {
  uint64_t interval = 0;
  SimTime timestamp = 0.0;
};

using Report = std::variant<NullReport, TsReport, AtReport, SigReport,
                            AdaptiveTsReport, GroupedAtReport, HybridReport>;

/// The `R` alternative `*out` holds, emplaced fresh when it holds another.
/// Report builders fill the returned report in place, so a recycled arena
/// slot keeps its payload vectors' capacity; the caller overwrites every
/// field (and clears every list it appends to).
template <class R>
R& ReuseAs(Report* out) {
  if (R* held = std::get_if<R>(out)) return *held;
  // The alternative switches on a slot's first build only; thereafter the
  // held one is reused. detlint:allow(alloc-event-path)
  return out->emplace<R>();
}

/// Broadcast timestamp of any report alternative.
SimTime ReportTimestamp(const Report& report);

/// Interval index of any report alternative.
uint64_t ReportInterval(const Report& report);

/// Airtime cost of the report in bits under the paper's accounting.
uint64_t ReportSizeBits(const Report& report, const MessageSizes& sizes);

}  // namespace mobicache

#endif  // MOBICACHE_CORE_REPORT_H_
