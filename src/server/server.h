// The stationary data server of one cell (the MSS-attached server of §1-§2):
// owns the broadcast schedule, builds reports through its ServerStrategy,
// transmits them on the shared channel (optionally through a §9 delivery
// model with contention jitter), and accounts uplink cache-miss queries.
//
// The server never tracks its listeners (§2, §3): each completed report
// goes to one consumer, the delivery sink, which the cell engine uses to
// fan it out shard-side. Broadcast cost tracks *listeners*, not wall
// intervals: with wake indexes attached, an interval whose entire
// transmission every unit sleeps through still builds and prices its
// report but elides its delivery and fan-out, keeping every statistic,
// channel counter, and strategy state byte-identical (quiet-interval
// elision), and a run of such intervals is replayed inline without the
// scheduler (the quiet skip).

#ifndef MOBICACHE_SERVER_SERVER_H_
#define MOBICACHE_SERVER_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/report.h"
#include "core/strategy.h"
#include "db/database.h"
#include "mu/wake_index.h"
#include "net/channel.h"
#include "net/delivery.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/status.h"

namespace mobicache {

class UpdateGenerator;

struct ServerConfig {
  SimTime latency = 10.0;  ///< L: broadcast period in seconds.
  MessageSizes sizes;      ///< Bit costs of the message vocabulary.
  /// Extra journal history retained beyond the strategy's horizon, in
  /// intervals (safety margin for observers).
  uint64_t journal_slack_intervals = 2;
  /// Broadcast intervals between journal prunes (>= 1). Skipping a prune
  /// only retains extra history — no window query reads beyond the horizon —
  /// so pruning in batches is identity-free and amortizes the bucket walk.
  uint64_t journal_prune_period_intervals = 8;
  /// Quiet-interval elision (requires an attached WakeIndex): skip report
  /// delivery and fan-out for intervals no unit can hear.
  /// Observable behaviour is byte-identical either way; the equivalence
  /// tests force it off to prove that.
  bool quiet_elision = true;
};

struct ServerStats {
  uint64_t reports_broadcast = 0;
  uint64_t uplink_queries_served = 0;
  /// Report deliveries nobody heard: every unit was asleep when the
  /// transmission completed. The paper's energy argument hinges on these —
  /// a report that lands in a fully sleeping cell is pure downlink waste.
  /// The server counts the ones it elided; only the cell engine knows who
  /// heard a delivered report, so it adds the unheard ones.
  uint64_t quiet_report_intervals = 0;
  /// The subset of quiet_report_intervals whose report delivery the server
  /// skipped outright (quiet-interval elision). A quiet interval still
  /// counts above when its report had to be delivered (observer attached,
  /// jittered delivery, or a unit waking mid-transmission).
  uint64_t quiet_skipped_intervals = 0;
  OnlineStats report_bits;       ///< Per-report size distribution (Bc).
  OnlineStats report_air_seconds;///< Per-report airtime.
};

class Server {
 public:
  /// `delivery` may be null, meaning ideal periodic timing with zero jitter.
  Server(Simulator* sim, Database* db, Channel* channel,
         std::unique_ptr<ServerStrategy> strategy, DeliveryModel* delivery,
         ServerConfig config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Registers a wake index covering a slice of the cell's units. With at
  /// least one index attached the server elides fully-quiet intervals and
  /// skips quiet stretches; it aggregates every attached index for the
  /// awake count and the wake horizon. The cell engine attaches one per
  /// shard. Call before Start().
  void AttachWakeIndex(const WakeIndex* index);

  /// Attaches the cell's update generator as the server's update pump. The
  /// server then drains pending updates at every point a reader can first
  /// observe database state — the broadcast head (updates strictly before
  /// the broadcast instant, before the report build) and the
  /// delivery-consumption instant (strictly before it) — so every reader
  /// sees each update in place from its own instant on. The cell engine
  /// adds one more pump at its window barrier. With no pump (a server
  /// driven without an update stream) the database changes only through
  /// the caller. Call before Start().
  void SetUpdatePump(UpdateGenerator* pump);

  /// Raises the journal retention class Start() arms beyond what the
  /// strategy declares (never lowers it). The cell engine calls this with
  /// kFullWindow when external instrumentation — a test's answer observer
  /// auditing values against historical ground truth — needs raw journal
  /// reads the strategy itself never issues. Call before Start().
  void SetRetentionFloor(JournalRetention floor) {
    if (floor > retention_floor_) retention_floor_ = floor;
  }

  /// Schedules periodic broadcasts at T_i = i*L starting at the current
  /// simulation time.
  Status Start();
  void Stop();

  /// Performs the server-side bookkeeping of one uplink query — strategy
  /// notification, uplink/answer channel charges, stats. The values are
  /// served shard-side; the cell engine replays the shard-logged queries
  /// through this at the interval barrier.
  void AccountUplinkQuery(const UplinkQueryInfo& info);

  /// One completed report transmission, as observed at the instant units
  /// would consume it. Elided quiet intervals produce none.
  struct ReportDelivery {
    std::shared_ptr<const Report> report;
    double listen_seconds = 0.0;  ///< Tuning cost for a unit that listens.
    SimTime done = 0.0;           ///< Transmission-complete time.
  };

  /// Invoked for every report when its transmission completes, before the
  /// delivery sink. Tests use this to snapshot ground truth at T_i.
  /// Attaching an observer disables quiet-interval elision (every report
  /// must be delivered to it).
  void SetReportObserver(std::function<void(const Report&)> observer) {
    report_observer_ = std::move(observer);
  }

  /// Installs the delivery sink: every completed report transmission is
  /// handed to it, after the report observer. The cell engine uses this to
  /// collect each interval's delivery and replay it inside every shard's
  /// own simulator. The sink runs inside the delivery-completion event, at
  /// Now() == delivery.done.
  void SetDeliverySink(std::function<void(ReportDelivery)> sink) {
    delivery_sink_ = std::move(sink);
  }

  /// Whether a fully quiet interval can be elided at all: elision on, a
  /// wake index attached, no report observer, and a delivery model that
  /// never jitters. The cell engine widens a lockstep window past one
  /// interval only then, so a wide window holds no audible report.
  bool CanElideQuietIntervals() const;

  /// Zeroes the accumulated statistics (used after warm-up).
  void ResetStats() {
    stats_ = ServerStats();
    deliveries_completed_ = 0;
  }

  /// Report transmissions completed since the last ResetStats — elided
  /// quiet intervals included. A unit missed every one it did not hear.
  uint64_t deliveries_completed() const { return deliveries_completed_; }

  /// Scheduler dispatches the quiet skip replayed inline instead of running
  /// them as events (two per fully skipped interval: the broadcast tick and
  /// the delivery-consumption event; one for the last interval of a skip,
  /// whose delivery still runs as a real event). Lifetime counter, like
  /// Simulator::DispatchedEvents(): the engine adds it to the
  /// dispatched-event total so the events/sec denominator counts the same
  /// simulated work whether or not the clock skipped.
  uint64_t skipped_dispatches() const { return skipped_dispatches_; }

  ServerStrategy* strategy() { return strategy_.get(); }
  const ServerStats& stats() const { return stats_; }
  const ServerConfig& config() const { return config_; }

 private:
  /// One interval's report transmission, as the per-interval step leaves
  /// it. `report` is null for an elided quiet interval.
  struct Transmission {
    std::shared_ptr<const Report> report;
    uint64_t bits = 0;
    double jitter = 0.0;
    double duration = 0.0;  ///< channel_->Duration(bits), computed once.
  };

  /// The scheduled broadcast tick: StepInterval, then Send, at Now().
  void Broadcast(uint64_t interval);
  /// The per-interval step shared by the broadcast tick and the quiet skip,
  /// at broadcast instant `now` (the skip passes a virtual time ahead of
  /// the clock): update drain, jitter draw, journal prune, the report
  /// build into an arena slot, and the report statistics. The slot is left
  /// unreferenced (the interval elided) when nobody can hear it.
  Transmission StepInterval(uint64_t interval, SimTime now);
  /// Transmits `tx` at `now`, or schedules it after its jitter.
  void Send(Transmission tx, SimTime now);
  /// Puts the report on the air at `now` and schedules its consumption.
  void Deliver(std::shared_ptr<const Report> report, uint64_t bits,
               double jitter, double duration, SimTime now);
  /// The delivery-consumption event: completes the delivery, then tries
  /// the quiet skip after an elided one or hands the report to the
  /// observer and the sink.
  void ConsumeDelivery(std::shared_ptr<const Report> report, double listen,
                       SimTime done);
  /// Drains updates due before `done` and counts one completed delivery —
  /// as quiet and skipped when `elided`. The one place elided intervals
  /// are counted, for the consumption event and the quiet skip alike.
  void CompleteDelivery(SimTime done, bool elided);
  /// The quiet skip, entered from the consumption of an elided interval
  /// (every unit asleep, nothing in flight): runs StepInterval for the
  /// following intervals inline at their nominal times and completes each
  /// elided delivery in place, until the cell's next interesting time — the
  /// earliest unit wake, the earliest foreign scheduler event, or the
  /// active run horizon. The scheduler then hops from one consumption event
  /// to the next real event in one dispatch, with every counter and RNG
  /// stream byte-identical to the per-interval execution.
  void SkipToNextInterestingTime();
  /// Earliest registered wake tick at or after `interval` across the
  /// attached indexes; adds their awake counts into `*awake`.
  SimTime WakeHorizon(uint64_t interval, uint64_t* awake) const;
  /// Grabs a free arena slot (use_count == 1 means no in-flight delivery
  /// still references it), growing the arena only until the steady state's
  /// maximum in-flight count is covered.
  std::shared_ptr<Report>& AcquireReportSlot();

  Simulator* sim_;
  Database* db_;
  Channel* channel_;
  std::unique_ptr<ServerStrategy> strategy_;
  DeliveryModel* delivery_;
  ServerConfig config_;
  std::vector<const WakeIndex*> wake_indexes_;
  std::unique_ptr<PeriodicProcess> broadcaster_;
  ServerStats stats_;
  std::function<void(const Report&)> report_observer_;
  std::function<void(ReportDelivery)> delivery_sink_;
  /// Recycled report storage: one slot per concurrently in-flight report
  /// (steady state: one). Handed out as shared_ptr<const Report> aliases,
  /// so a slot frees itself when its last consumer drops the reference.
  std::vector<std::shared_ptr<Report>> report_arena_;
  uint64_t deliveries_completed_ = 0;
  uint64_t intervals_since_prune_ = 0;
  uint64_t skipped_dispatches_ = 0;
  UpdateGenerator* update_pump_ = nullptr;
  JournalRetention retention_floor_ = JournalRetention::kNone;
};

}  // namespace mobicache

#endif  // MOBICACHE_SERVER_SERVER_H_
