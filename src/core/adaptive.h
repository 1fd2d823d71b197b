// Adaptive invalidation reports (paper §8): TS with a per-item window size
// w(i) = k_i * L that the server tunes from client feedback.
//
//  * A never-changing item that sleepy clients query often deserves an
//    effectively infinite window (it then always revalidates, hit ratio 1).
//  * An item that changes faster than it is queried deserves window 0 (it
//    is pure report overhead; clients should just go uplink).
//
// Every evaluation period (E intervals) the server recomputes each active
// item's window using one of two feedback methods:
//
//  * Method 1 (§8.1): clients piggyback, on each uplink query for item i,
//    the timestamps of the queries on i they answered locally since their
//    previous uplink for i. The server thus sees the full query history and
//    can compute the actual hit ratio AHR(i) and the maximal hit ratio
//    MHR(i) a never-sleeping client would have achieved, and a per-item
//    bit gain (Eq. 30) that weighs saved uplink bits against added report
//    bits.
//  * Method 2 (§8.2): no piggybacking; the server only sees the uplink
//    counts Q[i] per period and uses the coarser gain of Eq. 32.
//
// Concretizations this implementation pins down (the paper leaves them
// open; see DESIGN.md):
//  * Gain is oriented as "bits saved" (positive = the last adjustment
//    helped) and drives a per-item hill climber: keep direction while the
//    gain clears a threshold, reverse when it clearly hurt.
//  * Clients must know w(i) to conclude validity from silence, so every
//    report carries the complete table of non-default windows (items absent
//    from the table are back at w0). A heard report therefore always
//    refreshes the client's window knowledge in full, which keeps the
//    no-false-valid invariant under arbitrarily long naps. The table costs
//    |overrides| * (id_bits + window_bits) per report — cheap, because the
//    controller only ever overrides items with query or update activity.

#ifndef MOBICACHE_CORE_ADAPTIVE_H_
#define MOBICACHE_CORE_ADAPTIVE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/strategy.h"
#include "core/ts.h"

namespace mobicache {

/// Feedback protocol selector.
enum class AdaptiveFeedback { kMethod1, kMethod2 };

/// Tuning knobs for the adaptive controller.
struct AdaptiveTsOptions {
  uint64_t initial_window = 8;     ///< w0(i) in intervals, for every item.
  uint64_t max_window = 256;       ///< k_max.
  uint64_t eval_period = 16;       ///< E: evaluation period in intervals.
  uint64_t step = 2;               ///< e: window adjustment per evaluation.
  double gain_threshold = 0.0;     ///< epsilon: bits of gain needed to keep going.
  AdaptiveFeedback feedback = AdaptiveFeedback::kMethod1;
  /// Method 1 only: an item whose maximal (never-sleeping) hit ratio falls
  /// below this is not worth reporting at all — its window is driven to 0
  /// (the paper's "if the hit ratio is low even for units that do not sleep
  /// at all, the item should not be included in the report").
  double mhr_floor = 0.3;
  /// Method 1 only: grow the window while AHR lags MHR by more than this
  /// (the paper's "if MHR(i) > AHR(i) then there is room to improve").
  double ahr_gap = 0.05;
  /// Window of items nobody has queried (no controller exists): such items
  /// are not worth report space at all, so the default is 0. A controller is
  /// created the first time an item is requested uplink, starting at
  /// initial_window.
  uint64_t cold_window = 0;
};

/// Server half of adaptive TS.
class AdaptiveTsServerStrategy : public ServerStrategy {
 public:
  AdaptiveTsServerStrategy(const Database* db, SimTime latency,
                           const MessageSizes& sizes, AdaptiveTsOptions options);

  StrategyKind kind() const override { return StrategyKind::kAdaptiveTs; }
  void BuildReportInto(SimTime now, uint64_t interval, Report* out) override;
  SimTime JournalHorizonSeconds() const override;
  void OnUplinkQuery(const UplinkQueryInfo& info) override;
  uint64_t UplinkExtraBits(const UplinkQueryInfo& info) const override;

  /// Current window (in intervals) of an item. Items never queried have the
  /// cold window (default 0: they are not reported).
  uint64_t WindowOf(ItemId id) const;

  const AdaptiveTsOptions& options() const { return options_; }
  uint64_t evaluations_run() const { return evaluations_run_; }

 private:
  /// Per-item activity within the current evaluation period. Query times
  /// are kept per client: MHR is the hit ratio of one never-sleeping
  /// *client*, so inter-arrival gaps must not be shortened by merging the
  /// population's streams.
  struct PeriodActivity {
    uint64_t uplinks = 0;
    uint64_t local_hits = 0;
    uint64_t reported = 0;
    std::unordered_map<uint32_t, std::vector<SimTime>> query_times_by_client;
  };

  /// Persistent per-item controller state.
  struct ControllerState {
    uint64_t window;          // k_i, in intervals
    bool evaluated_before = false;
    double last_ahr = 0.0;
    uint64_t last_uplinks = 0;
    uint64_t last_reported = 0;
    int direction = +1;       // hill-climbing direction
  };

  void Reevaluate(SimTime now, uint64_t interval);
  double ComputeGainMethod1(const ControllerState& st,
                            const PeriodActivity& act, double ahr) const;
  double ComputeGainMethod2(const ControllerState& st,
                            const PeriodActivity& act) const;

  const Database* db_;
  SimTime latency_;
  MessageSizes sizes_;
  AdaptiveTsOptions options_;
  std::unordered_map<ItemId, ControllerState> controllers_;
  std::unordered_map<ItemId, PeriodActivity> period_;
  SimTime period_start_ = 0.0;
  uint64_t evaluations_run_ = 0;
  std::vector<UpdatedItem> updated_;  // window scratch, reused across reports
};

/// Client half of adaptive TS.
class AdaptiveTsClientManager : public ClientCacheManager {
 public:
  /// `options` must match the server's (part of the contract): the client
  /// needs the default window and k_max. `shared_index` is the decoding
  /// domain's TsReportIndex (see TsClientManager); null gives the manager a
  /// private one.
  AdaptiveTsClientManager(SimTime latency, AdaptiveTsOptions options,
                          TsReportIndex* shared_index = nullptr);

  StrategyKind kind() const override { return StrategyKind::kAdaptiveTs; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override;
  bool HasValidBaseline() const override { return heard_any_; }

  void OnLocalHit(ItemId id, SimTime time) override;
  std::vector<SimTime> TakePiggyback(ItemId id) override;

  /// The window this client believes item `id` has.
  uint64_t KnownWindowOf(ItemId id) const;

  /// Items dropped because their copy was too old for the item's window.
  uint64_t staleness_drops() const { return staleness_drops_; }

 private:
  SimTime latency_;
  AdaptiveTsOptions options_;
  std::unique_ptr<TsReportIndex> own_index_;  // set when none is shared
  TsReportIndex* index_;
  std::unordered_map<ItemId, uint64_t> known_windows_;  // overrides of w0
  std::unordered_map<ItemId, std::vector<SimTime>> pending_hits_;
  bool heard_any_ = false;
  uint64_t staleness_drops_ = 0;
  std::vector<ItemId> victims_;  // scratch, reused across reports
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_ADAPTIVE_H_
