// The cell engine. MegaCell partitions a cell's mobile-unit population into
// `num_shards` shards (one by default) — each with its own Simulator, SoA
// hot state, and the units' existing per-unit RNGs — and advances all
// shards in parallel between report-broadcast barriers:
//
//   server phase   the server simulator runs to just before the window's
//                  cut: broadcast ticks build and "transmit" reports
//                  (captured as immutable shared_ptr<const Report>
//                  deliveries via Server::SetDeliverySink), the update
//                  stream mutates the database, and — for the stateful /
//                  asynchronous baselines — the update trace is recorded.
//   shard phase    every shard (in parallel, one lane per shard) schedules
//                  the window's deliveries and trace events into its own
//                  simulator and runs to the same cut. Uplink queries are
//                  answered shard-side from the quiescent database and
//                  logged; stateful-registry charges are logged through a
//                  transmit sink.
//   barrier        the per-shard chronological logs are k-way-merged by
//                  (time, shard) — which at equal times equals the global
//                  unit order, because the partition is contiguous — and
//                  replayed onto the real server strategy and channel. The
//                  merge is a loser tree (util/merge.h); at >= 4 shards the
//                  gang first pair-merges adjacent shards' logs in parallel,
//                  which halves the serial merge's source count and moves
//                  half its comparisons off the barrier's critical path.
//                  Pair p = shards {2p, 2p+1} keeps (time, pair) order equal
//                  to (time, shard) order: the in-pair merge ties toward the
//                  lower shard and pair ranks are shard-ordered.
//
// A window ends at the next interval boundary, so an uplink logged before
// T_i reaches the strategy before the T_i report is built. Quiet windows
// coalesce: when every unit sleeps, the server can elide quiet intervals,
// and no update trace is recorded, the window ends instead at the last
// boundary at or before the earliest pending event of any shard (never
// past the warm-up end or the run end). No shard event falls inside such a
// window, so the shards have nothing to run, and the server's quiet skip
// replays the elided intervals inline.
//
// MUs never interact with each other, only with the per-interval broadcast
// and the (single-writer, shard-phase-quiescent) database, so sharding is
// not an approximation: for any shard count the per-unit statistics, the
// aggregate CellResult, and the channel counters are byte-identical, gated
// by tests/megacell_test.cc and by goldens recorded from the single-heap
// engine that preceded this one.
//
// Answer observers audit answered values against historical ground truth.
// When a unit has one, Run() raises the journal retention floor to
// kFullWindow and the shard uplink serves every fetched value as of its
// fetch instant (updates strictly before it), so the audit sees the values
// the single-heap interleaving served.

#ifndef MOBICACHE_EXP_MEGACELL_H_
#define MOBICACHE_EXP_MEGACELL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/coherency.h"
#include "core/stateful.h"
#include "core/ts.h"
#include "db/database.h"
#include "db/update_generator.h"
#include "exp/cell.h"
#include "mu/mobile_unit.h"
#include "net/channel.h"
#include "net/delivery.h"
#include "server/server.h"
#include "sig/signature.h"
#include "sim/simulator.h"
#include "util/merge.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mobicache {

struct MegaCellConfig {
  CellConfig cell;
  /// Number of shards (and threads) the unit population is split across.
  /// Must be >= 1 and <= cell.num_units; Build() rejects anything else.
  uint32_t num_shards = 1;
};

/// Per-shard run accounting, for the bench JSON's wall-time breakdown.
struct MegaCellShardStats {
  uint64_t num_units = 0;
  uint64_t sim_events = 0;    ///< Events the shard's simulator dispatched.
  double wall_seconds = 0.0;  ///< Wall time spent advancing this shard.
};

/// One cell simulation. Build once, run once.
class MegaCell {
 public:
  explicit MegaCell(MegaCellConfig config);
  ~MegaCell();

  MegaCell(const MegaCell&) = delete;
  MegaCell& operator=(const MegaCell&) = delete;

  /// Validates the configuration (including the shard/unit combination) and
  /// constructs the server side plus every shard. Per-unit seeds are drawn
  /// in global unit order, independent of the partition, so every unit's
  /// RNG stream is the same at any shard count.
  Status Build();

  /// Runs `warmup_intervals` intervals, resets all statistics, then runs
  /// `measure_intervals` more and freezes the result. Lockstep window cuts
  /// are exclusive: boundary events belong to the next window (see the
  /// file comment).
  Status Run(uint64_t warmup_intervals, uint64_t measure_intervals);

  /// Result of the measurement phase; valid after Run().
  CellResult result() const;

  /// Folded statistics of one unit by *global* index: the unit's own stats
  /// plus its SoA broadcast-counter lanes. Read per-unit statistics here,
  /// not from MobileUnit::stats(), which lacks the SoA counters.
  MobileUnitStats UnitStats(uint64_t global_index) const;

  /// Every unit in global order, for attaching answer observers (before
  /// Run()) and inspecting client views.
  std::vector<MobileUnit*> units();

  const std::vector<MegaCellShardStats>& shard_stats() const {
    return shard_stats_;
  }

  // Per-phase wall accounting over the whole run (warmup included — these
  // are run-lifetime diagnostics, not measurement-phase statistics, so
  // ResetAllStats leaves them alone). shard_phase is the wall of the
  // fork-join gang call — the phase's critical path, not the per-lane sum
  // (that lives in shard_stats) — so server + shard_phase + replay
  // approximates the full Run() wall on any core count.
  /// Wall time in the serial server phases.
  double server_wall_seconds() const { return server_wall_seconds_; }
  /// Wall time in the parallel shard phases (critical path per window).
  double shard_phase_wall_seconds() const { return shard_phase_wall_seconds_; }
  /// Wall time in the barrier replay-merges (pre-merge + serial replay).
  double replay_wall_seconds() const { return replay_wall_seconds_; }
  /// Records replayed at the barriers (shard log entries + async trace
  /// broadcasts), warmup included.
  uint64_t replay_records() const { return replay_records_; }
  /// Wall time draining the update stream — a sub-account of the server
  /// phase (pumps run inside it).
  double update_wall_seconds() const {
    return updates_ == nullptr ? 0.0 : updates_->update_wall_seconds();
  }

  // Stateful/async counter sums across shard replicas (0 for other modes).
  uint64_t registry_control_messages() const;
  uint64_t registry_invalidations_sent() const;
  uint64_t registry_invalidations_missed_asleep() const;
  uint64_t async_messages_broadcast() const { return async_messages_; }
  uint64_t async_deliveries() const;

  Database* db() { return db_.get(); }
  Server* server() { return server_.get(); }
  Channel* channel() { return channel_.get(); }
  UpdateGenerator* updates() { return updates_.get(); }
  const MegaCellConfig& config() const { return config_; }

 private:
  struct Shard;

  /// Advances server and shards to `cut` and replays the window's logs.
  /// `inclusive` runs events at exactly `cut` too (the warmup/measure end
  /// points, which sit mid-interval); boundary cuts are exclusive.
  void AdvanceWindow(SimTime cut, bool inclusive);
  /// Index of the boundary that ends the window opening at boundary
  /// `from`: from + 1, or — for a quiet window (see the file comment) — the
  /// last boundary at or before every shard's earliest pending event,
  /// capped at `limit`.
  uint64_t WindowEnd(uint64_t from, uint64_t limit);
  void ReplayWindow();
  void ResetAllStats();

  MegaCellConfig config_;
  MessageSizes sizes_;
  bool built_ = false;
  bool ran_ = false;
  bool stateful_mode_ = false;
  bool async_mode_ = false;
  bool trace_updates_ = false;  ///< stateful or async: capture update trace.

  // Server side (single-threaded phases only).
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<UpdateGenerator> updates_;
  std::unique_ptr<Channel> channel_;
  std::unique_ptr<DeliveryModel> delivery_;
  std::unique_ptr<SignatureFamily> family_;  ///< Server-strategy replica.
  std::unique_ptr<NumericWalk> walk_;
  std::unique_ptr<Server> server_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<uint64_t> shard_offset_;  ///< Global index of each shard's
                                        ///< first unit, plus a final sentinel.
  std::unique_ptr<LockstepGang> gang_;

  // Window buffers (cleared every barrier).
  std::vector<Server::ReportDelivery> pending_deliveries_;
  struct TraceRecord {
    SimTime time;
    ItemId id;
  };
  std::vector<TraceRecord> update_trace_;
  /// Current window bounds, stashed as members so the shard-phase gang
  /// lambda captures only `this` (a by-value capture would overflow
  /// std::function's inline buffer and allocate every window).
  SimTime window_cut_ = 0.0;
  bool window_inclusive_ = false;

  // Barrier replay state, reused across windows so the replay path stops
  // allocating once capacities are warm.
  /// Reference into a shard log: pre-merged pairs carry (time, shard,
  /// index) instead of copied records — a LogRecord copy would drag the
  /// uplink info's heap payload with it.
  struct MergedRef {
    SimTime time;
    uint32_t shard;
    uint32_t index;
  };
  LoserTreeMerger merger_;
  std::vector<size_t> replay_heads_;  ///< Per-source consume cursor.
  std::vector<std::vector<MergedRef>> premerged_;  ///< One per shard pair.

  uint64_t measure_intervals_ = 0;
  uint64_t async_messages_ = 0;
  /// Delivered reports no shard's slice heard (summed at the barrier).
  /// The server counts the quiet intervals it elided itself; these are the
  /// rest of CellResult::quiet_report_intervals.
  uint64_t unheard_reports_ = 0;
  std::vector<MegaCellShardStats> shard_stats_;
  double server_wall_seconds_ = 0.0;
  double shard_phase_wall_seconds_ = 0.0;
  double replay_wall_seconds_ = 0.0;
  uint64_t replay_records_ = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_EXP_MEGACELL_H_
