#include "server/server.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "db/update_generator.h"

namespace mobicache {

Server::Server(Simulator* sim, Database* db, Channel* channel,
               std::unique_ptr<ServerStrategy> strategy,
               DeliveryModel* delivery, ServerConfig config)
    : sim_(sim),
      db_(db),
      channel_(channel),
      strategy_(std::move(strategy)),
      delivery_(delivery),
      config_(config) {
  assert(config_.latency > 0.0);
  assert(config_.journal_prune_period_intervals >= 1);
}

Server::~Server() { Stop(); }

void Server::AttachWakeIndex(const WakeIndex* index) {
  assert(index != nullptr);
  assert(broadcaster_ == nullptr && "attach wake indexes before Start()");
  wake_indexes_.push_back(index);
}

void Server::SetUpdatePump(UpdateGenerator* pump) {
  assert(broadcaster_ == nullptr && "attach the update pump before Start()");
  update_pump_ = pump;
}

Status Server::Start() {
  if (broadcaster_ != nullptr) {
    return Status::FailedPrecondition("server already started");
  }
  // Bucket the raw log by broadcast interval, so pruning drops whole
  // intervals and recycles their storage.
  db_->SetJournalBucketWidth(config_.latency);
  // Arm the retention class the strategy declared (possibly raised by an
  // instrumentation floor): no history at all for strategies that never
  // read update history, the dirty set alone for those that only
  // window-query, the dirty set plus the raw log for historical readers.
  db_->SetRetention(std::max(strategy_->retention(), retention_floor_));
  broadcaster_ = std::make_unique<PeriodicProcess>(
      sim_, sim_->Now(), config_.latency,
      [this](uint64_t interval) { Broadcast(interval); });
  return broadcaster_->Start();
}

void Server::Stop() {
  if (broadcaster_ != nullptr) broadcaster_->Stop();
}

bool Server::CanElideQuietIntervals() const {
  return config_.quiet_elision && !wake_indexes_.empty() &&
         !report_observer_ &&
         (delivery_ == nullptr ||
          delivery_->kind() == DeliveryModelKind::kIdealPeriodic ||
          delivery_->mean_jitter() <= 0.0);
}

std::shared_ptr<Report>& Server::AcquireReportSlot() {
  // use_count == 1 means only the arena holds the slot: the previous
  // delivery's consumers have dropped their references, so the Report's
  // payload vectors (their heap capacity intact) can be refilled in place.
  for (std::shared_ptr<Report>& slot : report_arena_) {
    if (slot.use_count() == 1) return slot;
  }
  // One-time arena growth, cold by construction: every warm interval finds
  // a reusable slot above. detlint:allow(alloc-event-path)
  report_arena_.push_back(std::make_shared<Report>());
  return report_arena_.back();
}

SimTime Server::WakeHorizon(uint64_t interval, uint64_t* awake) const {
  SimTime horizon = std::numeric_limits<SimTime>::infinity();
  for (const WakeIndex* index : wake_indexes_) {
    *awake += index->awake_count();
    horizon = std::min(horizon, index->NextWakeFrom(interval));
  }
  return horizon;
}

void Server::Broadcast(uint64_t interval) {
  const SimTime now = sim_->Now();
  Send(StepInterval(interval, now), now);
}

Server::Transmission Server::StepInterval(uint64_t interval, SimTime now) {
  // Update drain: everything strictly before this broadcast instant
  // becomes visible before the report builds; updates at the instant itself
  // belong to the next report.
  if (update_pump_ != nullptr) {
    update_pump_->GenerateIntervalUpdates(now, /*inclusive=*/false);
  }
  // The jitter draw precedes the report build: the delivery model owns a
  // private RNG stream, so the draw order relative to the (draw-free) build
  // is unobservable — and elision needs the jitter before deciding.
  Transmission tx;
  if (delivery_ != nullptr) tx.jitter = delivery_->SampleJitter();

  // Keep as much journal as the strategy's window needs, plus slack. Pruning
  // is batched (journal_prune_period_intervals): the cutoff always trails the
  // build window, so pruning less often — or before the build — only retains
  // extra history and changes no windowed read.
  if (++intervals_since_prune_ >= config_.journal_prune_period_intervals) {
    intervals_since_prune_ = 0;
    const SimTime horizon =
        strategy_->JournalHorizonSeconds() +
        config_.latency * static_cast<double>(config_.journal_slack_intervals);
    if (now > horizon) db_->PruneJournalBefore(now - horizon);
  }

  // Every interval builds its report, heard or not: the strategy advances
  // exactly as in a fully awake cell and the report's size is its airtime.
  std::shared_ptr<Report>& slot = AcquireReportSlot();
  strategy_->BuildReportInto(now, interval, slot.get());
  tx.bits = ReportSizeBits(*slot, config_.sizes);
  tx.duration = channel_->Duration(tx.bits);

  // Quiet-interval elision (the "sleepers" fast path): if every unit is
  // asleep now and none wakes before this transmission completes, the
  // report is pure downlink accounting — no unit, observer, or jittered
  // re-delivery will ever read it — so the slot stays unreferenced and the
  // delivery and fan-out are skipped. Every counter stays byte-identical to
  // the delivered run.
  bool heard = !config_.quiet_elision || tx.jitter > 0.0 ||
               report_observer_ || wake_indexes_.empty();
  if (!heard) {
    uint64_t awake = 0;
    const SimTime wake_horizon = WakeHorizon(interval, &awake);
    heard = awake > 0 || wake_horizon <= now + tx.duration;
  }
  if (heard) tx.report = slot;

  ++stats_.reports_broadcast;
  stats_.report_bits.Add(static_cast<double>(tx.bits));
  stats_.report_air_seconds.Add(tx.duration);
  return tx;
}

void Server::Send(Transmission tx, SimTime now) {
  if (tx.jitter <= 0.0) {
    Deliver(std::move(tx.report), tx.bits, 0.0, tx.duration, now);
    return;
  }
  const uint64_t bits = tx.bits;
  const double jitter = tx.jitter;
  const double duration = tx.duration;
  sim_->ScheduleAt(now + jitter, [this, report = std::move(tx.report), bits,
                                  jitter, duration] {
    Deliver(report, bits, jitter, duration, sim_->Now());
  });
}

void Server::Deliver(std::shared_ptr<const Report> report, uint64_t bits,
                     double jitter, double duration, SimTime now) {
  // The server owns the downlink schedule: the report claims the head of
  // the interval rather than queueing behind pending query traffic. An
  // elided (null) report still transmits — channel accounting is identical
  // whether anyone listens or not.
  const SimTime done =
      channel_->TransmitAt(now, bits, TrafficClass::kReport, /*preempt=*/true);
  const double listen =
      delivery_ == nullptr ? duration
                           : delivery_->ListenSeconds(jitter, duration);
  // Units consume the report when its transmission completes. Quiet counters
  // tick inside this event so ResetStats boundaries and run-end truncation
  // bin elided intervals exactly like delivered ones.
  sim_->ScheduleAt(done, [this, report = std::move(report), listen, done] {
    ConsumeDelivery(std::move(report), listen, done);
  });
}

void Server::ConsumeDelivery(std::shared_ptr<const Report> report,
                             double listen, SimTime done) {
  CompleteDelivery(done, /*elided=*/report == nullptr);
  if (report == nullptr) {
    // An elided interval means the whole cell sleeps: the quiet stretch
    // ahead can be replayed without the scheduler.
    SkipToNextInterestingTime();
    return;
  }
  if (report_observer_) report_observer_(*report);
  if (delivery_sink_) {
    delivery_sink_(ReportDelivery{std::move(report), listen, done});
  }
}

void Server::CompleteDelivery(SimTime done, bool elided) {
  // Drain updates due before the consumption instant: report observers
  // snapshot ground truth here, as of every update with time < done.
  if (update_pump_ != nullptr) {
    update_pump_->GenerateIntervalUpdates(done, /*inclusive=*/false);
  }
  ++deliveries_completed_;
  if (elided) {
    ++stats_.quiet_report_intervals;
    ++stats_.quiet_skipped_intervals;
  }
}

void Server::SkipToNextInterestingTime() {
  // Entry context: the consumption event of an elided interval — every unit
  // is asleep and no jittered delivery is in flight. Replaying further
  // intervals needs the update pump (each replayed step drains through it)
  // and a live broadcast schedule.
  if (update_pump_ == nullptr || !broadcaster_->active()) return;
  uint64_t interval = broadcaster_->ticks_fired();
  SimTime tick = broadcaster_->pending_time();

  // No unit event runs while we replay, so the cell's wake horizon is a
  // loop constant: any wake registered at an interval we might reach would
  // stop the loop at or before that interval's tick. Ditto the earliest
  // foreign event once our own tick is out of the scheduler — the replayed
  // steps schedule nothing before their last one, and the update pump
  // bypasses the scheduler.
  uint64_t awake = 0;
  const SimTime wake_horizon = WakeHorizon(interval, &awake);
  if (wake_horizon <= tick || !sim_->WithinRunHorizon(tick) ||
      sim_->NextEventTime() < tick) {
    return;  // something happens before the next tick: nothing to skip
  }

  broadcaster_->SuspendPending();
  const SimTime next_foreign = sim_->NextEventTime();
  uint64_t skipped = 0;
  while (wake_horizon > tick && next_foreign > tick &&
         sim_->WithinRunHorizon(tick)) {
    Transmission tx = StepInterval(interval, tick);
    ++skipped;
    ++skipped_dispatches_;  // the broadcast tick
    const SimTime done = tick + tx.duration;
    if (tx.report != nullptr || next_foreign <= done ||
        !sim_->WithinRunHorizon(done)) {
      // This interval's delivery runs as a real event: a unit wakes while
      // the report is on the air (or it jitters), or a foreign event or the
      // run horizon lands before `done`, so the consumption must dispatch
      // in order or in the next run phase. Its tick is the last one skipped.
      Send(std::move(tx), tick);
      break;
    }
    // Fully quiet interval: the elided delivery completes in place.
    channel_->TransmitAt(tick, tx.bits, TrafficClass::kReport,
                         /*preempt=*/true);
    CompleteDelivery(done, /*elided=*/true);
    ++skipped_dispatches_;  // the consumption event
    ++interval;
    tick += config_.latency;
  }
  broadcaster_->SkipTicks(skipped);
}

void Server::AccountUplinkQuery(const UplinkQueryInfo& info) {
  assert(info.id < db_->size());
  strategy_->OnUplinkQuery(info);
  const uint64_t extra = strategy_->UplinkExtraBits(info);
  channel_->Transmit(config_.sizes.bq + extra, TrafficClass::kUplinkQuery);
  channel_->Transmit(config_.sizes.ba, TrafficClass::kDownlinkAnswer);
  ++stats_.uplink_queries_served;
}

}  // namespace mobicache
