#include "server/server.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "db/update_generator.h"

namespace mobicache {

namespace {

/// Broadcast intervals of raw log kept past the strategy's horizon: the
/// margin for historical reads (answer audits) that trail the report build.
constexpr double kJournalSlackIntervals = 2.0;

}  // namespace

Server::Server(Simulator* sim, Database* db, Channel* channel,
               std::unique_ptr<ServerStrategy> strategy,
               DeliveryModel* delivery, ServerConfig config)
    : sim_(sim),
      db_(db),
      channel_(channel),
      strategy_(std::move(strategy)),
      delivery_(delivery),
      config_(config) {
  assert(delivery_ != nullptr);
  assert(config_.latency > 0.0);
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
  // Update drain: everything strictly before this broadcast instant
  // becomes visible before the report builds; updates at the instant itself
  // belong to the next report.
  if (update_pump_ != nullptr) {
    update_pump_->GenerateIntervalUpdates(now, /*inclusive=*/false);
  }
  // The jitter draw precedes the report build: the delivery model owns a
  // private RNG stream, so the draw order relative to the (draw-free) build
  // is unobservable — and elision needs the jitter before deciding.
  const double jitter = delivery_->SampleJitter();

  // Keep as much raw log as the strategy's window needs, plus slack for the
  // historical reads of delivered answers. The cutoff trails the build
  // window, so pruning before the build changes no windowed read.
  const SimTime horizon = strategy_->JournalHorizonSeconds() +
                          kJournalSlackIntervals * config_.latency;
  if (now > horizon) db_->PruneJournalBefore(now - horizon);

  // Every interval builds its report, heard or not: the strategy advances
  // exactly as in a fully awake cell and the report's size is its airtime.
  std::shared_ptr<Report>& slot = AcquireReportSlot();
  strategy_->BuildReportInto(now, interval, slot.get());
  const uint64_t bits = ReportSizeBits(*slot, config_.sizes);
  const double duration = channel_->Duration(bits);

  // Quiet-interval elision (the "sleepers" fast path): if every unit is
  // asleep now and none wakes before this transmission completes, the
  // report is pure downlink accounting — no unit, observer, or jittered
  // re-delivery will ever read it — so the slot stays unreferenced and the
  // delivery carries no report. Every counter stays byte-identical to the
  // delivered run.
  bool heard = !config_.quiet_elision || jitter > 0.0 || report_observer_ ||
               wake_indexes_.empty();
  if (!heard) {
    uint64_t awake = 0;
    const SimTime wake_horizon = WakeHorizon(interval, &awake);
    heard = awake > 0 || wake_horizon <= now + duration;
  }
  std::shared_ptr<const Report> report;
  if (heard) report = slot;

  ++stats_.reports_broadcast;
  stats_.report_bits.Add(static_cast<double>(bits));
  stats_.report_air_seconds.Add(duration);

  if (jitter <= 0.0) {
    Deliver(std::move(report), bits, 0.0, duration, now);
    return;
  }
  sim_->ScheduleAt(now + jitter, [this, report = std::move(report), bits,
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
  const double listen = delivery_->ListenSeconds(jitter, duration);
  // Units consume the report when its transmission completes. Quiet counters
  // tick inside this event so ResetStats boundaries and run-end truncation
  // bin elided intervals exactly like delivered ones.
  sim_->ScheduleAt(done, [this, report = std::move(report), listen, done] {
    ConsumeDelivery(std::move(report), listen, done);
  });
}

void Server::ConsumeDelivery(std::shared_ptr<const Report> report,
                             double listen, SimTime done) {
  // Drain updates due before the consumption instant: report observers
  // snapshot ground truth here, as of every update with time < done.
  if (update_pump_ != nullptr) {
    update_pump_->GenerateIntervalUpdates(done, /*inclusive=*/false);
  }
  ++deliveries_completed_;
  if (report == nullptr) {  // elided: nobody hears it
    ++stats_.quiet_report_intervals;
    ++stats_.quiet_skipped_intervals;
    return;
  }
  if (report_observer_) report_observer_(*report);
  if (delivery_sink_) {
    delivery_sink_(ReportDelivery{std::move(report), listen, done});
  }
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
