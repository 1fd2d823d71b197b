// Strategy interfaces. Each cache-invalidation strategy is a pair:
//
//  * a ServerStrategy that builds the periodic invalidation report from the
//    database state (the stateless server's "obligation"), and
//  * a ClientCacheManager that applies a heard report to a client cache and
//    integrates uplink fetches.
//
// The pair constitutes the contract of §1: clients know exactly what the
// server promises to report, and derive validity from silence as much as
// from content.

#ifndef MOBICACHE_CORE_STRATEGY_H_
#define MOBICACHE_CORE_STRATEGY_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/cache.h"
#include "core/report.h"
#include "db/database.h"
#include "sim/simulator.h"

namespace mobicache {

/// The strategies studied in the paper plus the baselines.
enum class StrategyKind {
  kTs,        ///< Broadcasting Timestamps (§3.1).
  kAt,        ///< Amnesic Terminals (§3.2).
  kSig,       ///< Signatures (§3.3).
  kNoCache,   ///< No client caching; every query goes uplink (§4.2).
  kAdaptiveTs,///< TS with per-item adaptive windows (§8).
  kIdeal,     ///< Unattainable instant invalidation baseline (§4.1, Tmax).
  kStateful,  ///< Attainable stateful server (AFS/Coda style, §1-§2).
  kQuasiAt,   ///< AT with quasi-copy relaxed coherency (§7).
  kAsync,     ///< Asynchronous per-update invalidation broadcast (§3.2).
  kGroupedAt, ///< Compressed AT: group-level aggregate reports (§2, §10).
  kHybridSig, ///< Hot set broadcast individually, cold set in signatures (§10).
};

/// Short stable names ("TS", "AT", "SIG", "nocache", "ATS").
std::string_view StrategyName(StrategyKind kind);

/// Chooses between the two equivalent ways of applying a report to a cache:
/// probing the cache once per report entry (O(|report|)), or walking the
/// cache and looking each item up in the report (a binary search of the
/// sorted report for AT, one read of the shared TsReportIndex for TS).
/// The latter wins when the report dwarfs the cache, which is the common
/// case at paper scale (10^6-item databases, tens of cached items).
inline bool CacheDrivenScanPays(size_t report_entries, size_t cached_items) {
  return report_entries > 4 * cached_items + 8;
}

/// Per-query feedback delivered to the server with an uplink request.
/// `local_hit_times` is Method-1 piggyback data (§8.1): the timestamps of
/// queries on this item that were answered locally since the previous uplink
/// request for it. Empty unless the client runs the Method-1 protocol.
struct UplinkQueryInfo {
  ItemId id = 0;
  SimTime time = 0.0;
  /// Opaque client identity, used only for per-client statistics (e.g. the
  /// adaptive controller's per-client MHR estimation); the server remains
  /// stateless about caches.
  uint32_t client_id = 0;
  std::vector<SimTime> local_hit_times;
};

/// Server-side half of a strategy. Stateless with respect to clients: its
/// only inputs are the database, the clock, and (for the adaptive extension)
/// the aggregate uplink stream.
class ServerStrategy {
 public:
  virtual ~ServerStrategy() = default;

  virtual StrategyKind kind() const = 0;

  /// Builds the report broadcast at T = `now` with index `interval` into
  /// `*out`, reusing the storage `*out` already holds when it carries a
  /// report of the same kind (see ReuseAs). This is the one way a strategy
  /// produces an interval: the server builds every interval, heard or
  /// quiet, into a recycled arena slot and prices it with ReportSizeBits,
  /// so the steady-state broadcast path allocates nothing. A quiet interval
  /// differs only in that nobody receives the built report.
  virtual void BuildReportInto(SimTime now, uint64_t interval,
                               Report* out) = 0;

  /// A no-op that no strategy overrides and the server does not call:
  /// every strategy reads update history through the database's window
  /// queries. Kept because perfbench's server probe still calls it.
  virtual void AttachUpdateFeed(Database* db) { (void)db; }

  /// The journal retention class this strategy requires of the server's
  /// database (see JournalRetention). Server::Start arms the database with
  /// this declaration — replacing per-call-site journal toggles scattered
  /// through the cell drivers — possibly raised by an instrumentation floor
  /// (Server::SetRetentionFloor). kNone strategies never read update
  /// history at all; kDirtySet strategies only window-query with a lo that
  /// never decreases (TS, AT, grouped AT, SIG, hybrid); the kFullWindow
  /// default adds the raw log for historical reads (JournalIn, VersionAt).
  virtual JournalRetention retention() const {
    return JournalRetention::kFullWindow;
  }

  /// How far back the database journal must reach for this strategy's
  /// reports (w for TS, L for AT, ...). The cell prunes beyond this.
  virtual SimTime JournalHorizonSeconds() const = 0;

  /// Observes one uplink query (called for every cache miss served).
  virtual void OnUplinkQuery(const UplinkQueryInfo& info) { (void)info; }

  /// Extra uplink bits this strategy's protocol adds on top of bq for the
  /// given query (e.g. Method-1 piggybacked timestamps).
  virtual uint64_t UplinkExtraBits(const UplinkQueryInfo& info) const {
    (void)info;
    return 0;
  }
};

/// Client-side half of a strategy. Owns no cache; it mutates the ClientCache
/// passed in, so one manager services exactly one mobile unit.
class ClientCacheManager {
 public:
  virtual ~ClientCacheManager() = default;

  virtual StrategyKind kind() const = 0;

  /// Applies a report heard (awake) at its broadcast time. Must enforce the
  /// strategy's drop rules for missed reports. Returns the number of items
  /// invalidated (for statistics).
  virtual uint64_t OnReport(const Report& report, ClientCache* cache) = 0;

  /// Integrates an item fetched uplink: the copy carries the server-clock
  /// fetch time as its validity timestamp (§2).
  virtual void OnUplinkFetch(ItemId id, uint64_t value, SimTime server_time,
                             ClientCache* cache);

  /// Whether the cached copy of `id` may answer a query at the current
  /// report instant. Managers that evict eagerly (TS/AT/SIG) answer
  /// "is it cached"; specializations may veto (e.g. quasi-copy aging).
  virtual bool CanAnswerFromCache(ItemId id, SimTime now,
                                  const ClientCache& cache) const;

  /// Records a query answered locally (needed by Method-1 feedback).
  virtual void OnLocalHit(ItemId id, SimTime time) {
    (void)id;
    (void)time;
  }

  /// Returns and clears the Method-1 piggyback payload for an uplink query
  /// on `id`. Default: empty.
  virtual std::vector<SimTime> TakePiggyback(ItemId id) {
    (void)id;
    return {};
  }

  /// True once at least one report has been heard since creation (or since
  /// the cache was last dropped for staleness).
  virtual bool HasValidBaseline() const = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_STRATEGY_H_
