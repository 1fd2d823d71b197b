// The mobile unit (MU) process: owns a cache, a strategy-specific cache
// manager, a sleep model, and a Poisson query stream over its hot spot.
//
// Protocol (§2): the unit decides at every interval boundary T_i whether it
// is awake for [T_i, T_i+L). An awake unit's tick draws the interval's whole
// query stream through one kernel (GenerateIntervalArrivals: gap, then item,
// repeated; timestamps bit-exact with a per-arrival event clock). A unit
// asleep for an interval issues no queries and hears nothing.
//
// Report-driven units queue the arrivals. When a report they hear lands
// (OnReportDelivery) they first apply it to the cache, then answer
// everything queued — locally if the manager vouches for the copy,
// otherwise via an uplink fetch. Pending queries survive naps and wait for
// the next report the unit actually hears (TS can often still revalidate
// after the nap; AT cannot). Queries on the same item queued together are
// answered as one *batch* (one answer, at most one uplink request: the
// paper's "all answered at the same time" rule), and the hit/miss
// statistics count batches — the unit of the paper's throughput model.
//
// Immediate-answer units (the stateful and ideal baselines of §4.1, and the
// asynchronous-invalidation cell) instead schedule one answer event per
// arrival, at its instant, since a stateful answer depends on server state
// then; they are invalidated push-style (PushInvalidate).
//
// Misses go through the shard's Uplink (mu/uplink.h), which logs them for
// the barrier replay. Reports heard/missed and listen time are counted by
// the cell engine's fan-out in the shard's SoA lanes (mu/hot_state.h).
//
// Event cost: sleeping stretches are fast-forwarded (one wake event per
// nap, however long) and report-driven arrivals cost no events, so dispatch
// counts scale with awake-unit activity, not units x intervals. All RNG
// draw sequences are preserved bit for bit (see ScheduleNextTick).

#ifndef MOBICACHE_MU_MOBILE_UNIT_H_
#define MOBICACHE_MU_MOBILE_UNIT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/cache.h"
#include "core/report.h"
#include "core/stateful.h"
#include "core/strategy.h"
#include "mu/sleep_model.h"
#include "mu/uplink.h"
#include "mu/wake_index.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/stats.h"

namespace mobicache {

struct MobileUnitConfig {
  SimTime latency = 10.0;          ///< L; must match the cell's broadcast.
  double lambda_per_item = 0.1;    ///< Query rate per hot-spot item.
  std::vector<ItemId> hotspot;     ///< Items this unit queries.
  bool answer_immediately = false; ///< Stateful, ideal and async cells.
  /// Discard the whole cache on waking from a nap: a reconnecting stateful
  /// client loses it, and an asynchronous-mode unit cannot know what it
  /// missed.
  bool drop_cache_on_wake = false;
  size_t cache_capacity = 0;       ///< 0 = unbounded.
  uint32_t unit_id = 0;            ///< Carried on uplink queries (stats only).
  /// Extension: Zipf exponent for query popularity *within* the hot spot
  /// (0 = the paper's uniform model). The first hot-spot item is the most
  /// popular; total query rate stays lambda_per_item * |hotspot|.
  double query_zipf_theta = 0.0;
};

struct MobileUnitStats {
  uint64_t queries_issued = 0;    ///< Raw query arrivals.
  uint64_t queries_answered = 0;  ///< Answered batches (paper's query unit).
  uint64_t hits = 0;              ///< Batches answered from cache.
  uint64_t misses = 0;            ///< Batches that required an uplink fetch.
  uint64_t items_invalidated = 0;
  /// Broadcast accounting: zero in the unit itself; MegaCell::UnitStats
  /// fills these from the shard's SoA lanes.
  uint64_t reports_heard = 0;
  uint64_t reports_missed = 0;
  double listen_seconds = 0.0;
  OnlineStats answer_latency;  ///< Seconds from first arrival to answer.

  double HitRatio() const {
    const uint64_t answered = hits + misses;
    return answered == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(answered);
  }
};

class MobileUnit {
 public:
  /// Observer invoked on every answered batch, mainly for correctness
  /// checking in tests: (item, value answered, validity timestamp of the
  /// answer, was it a cache hit).
  using AnswerObserver =
      std::function<void(ItemId, uint64_t, SimTime, bool)>;

  MobileUnit(Simulator* sim, MobileUnitConfig config,
             std::unique_ptr<ClientCacheManager> manager,
             std::unique_ptr<SleepModel> sleep, Uplink* uplink,
             uint64_t seed);

  ~MobileUnit();

  MobileUnit(const MobileUnit&) = delete;
  MobileUnit& operator=(const MobileUnit&) = delete;

  /// Begins the unit's interval clock at the current simulation time (must
  /// align with the server's broadcast schedule). Call before the server
  /// starts so the unit's sleep decision for an interval precedes the
  /// report delivery within it.
  Status Start();

  /// Applies a report the unit heard to its cache and answers every sealed
  /// query group it covers. The cell engine's fan-out calls it for awake
  /// report-driven units, after counting the delivery in the shard's SoA
  /// lanes.
  void OnReportDelivery(const Report& report);

  /// Publishes this unit's awake/asleep transitions into slot `slot` of a
  /// shared WakeIndex (see wake_index.h): every tick marks the slot awake,
  /// or asleep with the pre-computed wake tick the fast-forward scan
  /// scheduled. The server aggregates the index for quiet-interval elision;
  /// the cell engine walks it for awake-set fan-out. Bind before Start().
  void BindWakeIndex(WakeIndex* index, uint32_t slot);

  /// Earliest simulation time at which this unit can next be awake: now if
  /// it is awake, otherwise the time of its scheduled wake tick (the
  /// fast-forward scan already knows it — one of PR 4's predrawn flips).
  SimTime NextWakeTime() const {
    return awake_ ? sim_->Now() : pending_tick_time_;
  }

  /// Wires this unit to a stateful-server registry: the registry's
  /// invalidations reach PushInvalidate while the unit is awake.
  void BindStatefulRegistry(StatefulRegistry* registry);

  /// Push invalidation (§3.2 asynchronous messages, stateful-server
  /// invalidations): erases the item if cached. The caller checks
  /// reachability.
  void PushInvalidate(ItemId id) { cache_.Erase(id); }

  void SetAnswerObserver(AnswerObserver observer) {
    answer_observer_ = std::move(observer);
  }
  /// Whether an answer observer is attached. The cell driver checks this
  /// before starting the server: auditing observers read historical values,
  /// so the journal retention floor is raised to full for the run.
  bool has_answer_observer() const {
    return static_cast<bool>(answer_observer_);
  }

  /// Zeroes the accumulated statistics (used after warm-up).
  void ResetStats() { stats_ = MobileUnitStats(); }

  bool awake() const { return awake_; }
  ClientCache* cache() { return &cache_; }
  const ClientCache& cache() const { return cache_; }
  const MobileUnitStats& stats() const { return stats_; }
  const MobileUnitConfig& config() const { return config_; }

 private:
  void OnIntervalTick(uint64_t interval);
  /// Schedules the tick that will handle `interval + 1` — or, when the unit
  /// is idle (asleep, or awake with a zero query rate), fast-forwards: draws
  /// the upcoming sleep decisions in a tight loop (same RNG stream, same
  /// order as per-interval ticking) and schedules a single tick at the first
  /// interval whose decision flips the state, buffering that pre-drawn
  /// decision for the tick to consume.
  void ScheduleNextTick(uint64_t interval);
  /// The arrival kernel: draws the interval's exponential interarrival gaps
  /// and item picks in one loop (gap, then item, repeated) and hands each
  /// (item, time) to `sink`. Timestamps accumulate gap by gap from the tick,
  /// reproducing a per-arrival event clock bit for bit.
  template <typename Sink>
  void GenerateIntervalArrivals(SimTime interval_end, Sink sink);
  /// An immediate-answer unit's answer event for one arrival.
  void OnQueryArrival(ItemId id);
  /// Queues one arrival into `arriving_` (sorted insert). Arrivals come in
  /// time order, so an id already present keeps its earlier first-arrival
  /// time — the std::map::emplace "first insert wins" rule.
  void RecordArrival(ItemId id, SimTime t);
  /// Answers one batch at the current time; `validity_ts` is the timestamp
  /// vouching for cache answers (report timestamp, or now for immediate
  /// mode).
  void AnswerBatch(ItemId id, SimTime first_issued, SimTime validity_ts);

  Simulator* sim_;
  MobileUnitConfig config_;
  std::unique_ptr<ClientCacheManager> manager_;
  std::unique_ptr<SleepModel> sleep_;
  Uplink* uplink_;
  Rng rng_;
  std::unique_ptr<ZipfDistribution> query_zipf_;  // null = uniform
  ClientCache cache_;
  /// One queued query batch: the item and the first arrival time of its
  /// queries. Batches live in ascending-id sorted vectors — the same
  /// iteration order as the std::map they replaced, but the hot query path
  /// reuses flat storage instead of allocating a tree node per query.
  struct PendingBatch {
    ItemId id;
    SimTime first;
  };
  /// Queries queued during interval i are sealed at tick i+1 and may only
  /// be answered by a report with interval index >= i+1 (a report reflects
  /// updates up to its own T_i only — this matters when report airtime or
  /// delivery jitter pushes a delivery past the next boundary). `arriving_`
  /// collects the current interval's arrivals; sealed groups queue in
  /// `pending_groups_` and are merged per item at answer time.
  struct SealedGroup {
    uint64_t answerable_from;           ///< Minimum report interval index.
    std::vector<PendingBatch> batches;  ///< Ascending id, first arrival.
  };
  std::vector<PendingBatch> arriving_;
  /// FIFO of sealed groups: a vector plus a head index rather than a deque
  /// (libstdc++'s deque pre-allocates a ~512-byte map per instance — real
  /// memory at 10^6 units). Popping advances `pending_head_`; storage is
  /// reclaimed whenever the queue drains, so a long run of missed reports
  /// costs O(groups) total instead of the O(groups^2) a front-erase would.
  std::vector<SealedGroup> pending_groups_;
  size_t pending_head_ = 0;
  /// Reused scratch for OnReportDelivery's cross-group merge, plus a small
  /// pool of drained batch vectors: sealing an interval swaps a warm vector
  /// back into `arriving_`, so the steady state queues, seals, and answers
  /// queries without touching the heap.
  std::vector<PendingBatch> eligible_scratch_;
  std::vector<std::vector<PendingBatch>> spare_batches_;
  /// The single pending interval tick (the unit schedules its own ticks so
  /// sleeping stretches can be skipped; see ScheduleNextTick) and its
  /// scheduled time — for a sleeping unit that time IS the wake time.
  EventId pending_tick_{};
  SimTime pending_tick_time_ = 0.0;
  bool started_ = false;
  /// Fast-forward buffer: the sleep decision for `predrawn_interval_`,
  /// already drawn by a ScheduleNextTick scan. The tick for that interval
  /// must consume this instead of drawing again (SleepModel streams are
  /// strictly one draw per interval, in order).
  bool has_predrawn_ = false;
  bool predrawn_awake_ = false;
  uint64_t predrawn_interval_ = 0;
  MobileUnitStats stats_;
  AnswerObserver answer_observer_;
  bool awake_ = false;
  bool ever_decided_ = false;
  double total_query_rate_ = 0.0;

  StatefulRegistry* registry_ = nullptr;
  StatefulRegistry::ClientId registry_id_ = 0;

  WakeIndex* wake_index_ = nullptr;  ///< Shared wake index; null = unbound.
  uint32_t wake_slot_ = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_MU_MOBILE_UNIT_H_
