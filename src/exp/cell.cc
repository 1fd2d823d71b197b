#include "exp/cell.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "exp/strategy_factory.h"
#include "mu/hotspot.h"
#include "mu/sleep_model.h"
#include "util/random.h"

namespace mobicache {

Cell::Cell(CellConfig config) : config_(std::move(config)) {}

Cell::~Cell() {
  // The database's update observers may reference the registry or the
  // server strategy; detach them all first.
  if (db_ != nullptr) {
    db_->SetUpdateObserver(nullptr);
    db_->ClearExtraObservers();
  }
}

std::vector<MobileUnit*> Cell::units() {
  std::vector<MobileUnit*> out;
  out.reserve(units_.size());
  for (auto& u : units_) out.push_back(u.get());
  return out;
}

Status Cell::Build() {
  if (built_) return Status::FailedPrecondition("cell already built");
  MOBICACHE_RETURN_IF_ERROR(NormalizeCellConfig(&config_));
  const ModelParams& m = config_.model;
  sizes_ = ComputeMessageSizes(m);

  uint64_t seed_state = config_.seed;
  const uint64_t db_seed = SplitMix64(&seed_state);
  const uint64_t update_seed = SplitMix64(&seed_state);
  const uint64_t family_seed = SplitMix64(&seed_state);
  const uint64_t delivery_seed = SplitMix64(&seed_state);
  const uint64_t hotspot_seed = SplitMix64(&seed_state);

  sim_ = std::make_unique<Simulator>();
  // One ticker + at most one pending arrival per unit, plus the
  // server/update machinery: pre-size so a 10^6-unit cell never reallocates
  // its heap or slot slab mid-run.
  sim_->Reserve(2 * config_.num_units + 16);
  db_ = std::make_unique<Database>(m.n, db_seed);
  // Journal retention is strategy-declared now: Server::Start arms the
  // database with ServerStrategy::retention() (kNone for no-caching,
  // kDigestOnly for SIG/hybrid, full raw buckets otherwise).
  if (config_.update_rates.empty()) {
    updates_ = std::make_unique<UpdateGenerator>(sim_.get(), db_.get(), m.mu,
                                                 update_seed);
  } else {
    updates_ = std::make_unique<UpdateGenerator>(
        sim_.get(), db_.get(), config_.update_rates, update_seed);
  }
  channel_ = std::make_unique<Channel>(sim_.get(), m.W);
  delivery_ = std::make_unique<DeliveryModel>(
      config_.delivery, config_.mean_jitter_seconds, delivery_seed);

  family_ = MakeSignatureFamilyForCell(config_, family_seed);
  ts_index_ = MakeTsReportIndexForCell(config_);
  walk_ = MakeNumericWalkForCell(config_, db_seed);
  const bool stateful = config_.strategy == StrategyKind::kIdeal ||
                        config_.strategy == StrategyKind::kStateful;
  const bool async = config_.strategy == StrategyKind::kAsync;
  if (stateful) {
    const StatefulMode mode = config_.strategy == StrategyKind::kIdeal
                                  ? StatefulMode::kIdeal
                                  : StatefulMode::kStateful;
    registry_ =
        std::make_unique<StatefulRegistry>(mode, channel_.get(), sizes_);
    db_->SetUpdateObserver([this](ItemId id, SimTime t) {
      registry_->OnUpdate(id, t);
    });
  }
  if (async) {
    async_ = std::make_unique<AsyncBroadcaster>(sim_.get(), channel_.get(),
                                                sizes_);
    db_->SetUpdateObserver([this](ItemId id, SimTime t) {
      async_->OnUpdate(id, t);
    });
  }

  StrategyFactoryContext ctx;
  ctx.config = &config_;
  ctx.sizes = sizes_;
  ctx.db = db_.get();
  ctx.family = family_.get();
  ctx.ts_index = ts_index_.get();
  ctx.walk = walk_.get();

  ServerConfig sc;
  sc.latency = m.L;
  sc.sizes = sizes_;
  sc.quiet_elision = config_.quiet_elision;
  server_ = std::make_unique<Server>(sim_.get(), db_.get(), channel_.get(),
                                     MakeServerStrategy(ctx), delivery_.get(),
                                     sc);
  wake_index_.Resize(config_.num_units);
  server_->AttachWakeIndex(&wake_index_);
  if (!stateful && !async) {
    // Stateful and async modes install update observers with simulation
    // side effects at the update instant (registry invalidation pushes,
    // async broadcast events), so their updates must stay interleaved
    // per-event. Every other strategy only *reads* database state, and
    // every read site is a pump point — the update stream can drain in
    // batches with an identical observable trajectory.
    updates_->EnableBatchMode();
    server_->SetUpdatePump(updates_.get());
  }

  Rng hotspot_rng(hotspot_seed);
  const std::vector<ItemId> shared =
      ContiguousHotSpot(m.n, 0, config_.hotspot_size);
  for (uint64_t i = 0; i < config_.num_units; ++i) {
    const std::vector<ItemId> hotspot =
        !config_.custom_hotspots.empty()
            ? config_.custom_hotspots[i]
            : (config_.shared_hotspot
                   ? shared
                   : RandomHotSpot(m.n, config_.hotspot_size, hotspot_rng));

    MobileUnitConfig mc;
    mc.latency = m.L;
    mc.lambda_per_item = m.lambda;
    mc.hotspot = hotspot;
    mc.answer_immediately = stateful || async;
    mc.cache_capacity = config_.cache_capacity;
    mc.unit_id = static_cast<uint32_t>(i);
    mc.query_zipf_theta = config_.query_zipf_theta;

    std::unique_ptr<SleepModel> sleep;
    const uint64_t mu_seed = SplitMix64(&seed_state);
    if (config_.renewal_sleep) {
      sleep = std::make_unique<RenewalSleepModel>(
          m.L, config_.mean_awake_seconds, config_.mean_sleep_seconds,
          mu_seed ^ 0x9e3779b9);
    } else {
      sleep = std::make_unique<BernoulliSleepModel>(m.s, mu_seed ^ 0x9e3779b9);
    }

    auto unit = std::make_unique<MobileUnit>(
        sim_.get(), std::move(mc), MakeClientManager(ctx, hotspot),
        std::move(sleep), server_.get(), mu_seed);
    if (stateful) {
      unit->BindStatefulRegistry(
          registry_.get(), config_.strategy == StrategyKind::kStateful);
    }
    if (async) {
      unit->SetDropCacheOnWake(true);
      async_->AttachUnit(unit.get());
    }
    unit->BindWakeIndex(&wake_index_, static_cast<uint32_t>(i));
    server_->AttachUnit(unit.get());
    units_.push_back(std::move(unit));
  }

  built_ = true;
  return Status::OK();
}

Status Cell::Run(uint64_t warmup_intervals, uint64_t measure_intervals) {
  if (!built_) return Status::FailedPrecondition("Build() first");
  if (ran_) return Status::FailedPrecondition("cell already ran");
  if (measure_intervals == 0) {
    return Status::InvalidArgument("need at least one measured interval");
  }

  MOBICACHE_RETURN_IF_ERROR(updates_->Start());
  // Units start before the server so each unit's sleep decision for an
  // interval is made before that interval's report can be delivered.
  for (auto& unit : units_) {
    MOBICACHE_RETURN_IF_ERROR(unit->Start());
  }
  // Answer observers audit answered values against historical ground truth
  // (ValueAt), which needs raw journal entries no matter how little the
  // strategy itself retains.
  for (const auto& unit : units_) {
    if (unit->has_answer_observer()) {
      server_->SetRetentionFloor(JournalRetention::kFullWindow);
      break;
    }
  }
  MOBICACHE_RETURN_IF_ERROR(server_->Start());

  const double L = config_.model.L;
  // End runs just shy of an interval boundary so exactly the intended number
  // of reports falls inside each phase.
  const SimTime warmup_end =
      static_cast<double>(warmup_intervals) * L + 0.5 * L;
  sim_->RunUntil(warmup_end);
  server_->ResetStats();
  channel_->ResetStats();
  if (registry_ != nullptr) registry_->ResetStats();
  if (async_ != nullptr) async_->ResetStats();
  for (auto& unit : units_) unit->ResetStats();

  sim_->RunUntil(warmup_end + static_cast<double>(measure_intervals) * L);
  server_->Stop();
  updates_->Stop();
  // Sleepers never observe deliveries in wake-index mode; settle their
  // missed counts while the units still outlive the server.
  server_->SettleUnitStats();
  measure_intervals_ = measure_intervals;
  ran_ = true;
  return Status::OK();
}

CellResult Cell::result() const {
  CellResult r;
  uint64_t latency_samples = 0;
  double latency_sum = 0.0;
  for (const auto& unit : units_) {
    const MobileUnitStats& st = unit->stats();
    r.queries_answered += st.queries_answered;
    r.hits += st.hits;
    r.misses += st.misses;
    r.reports_heard += st.reports_heard;
    r.reports_missed += st.reports_missed;
    r.items_invalidated += st.items_invalidated;
    r.listen_seconds_total += st.listen_seconds;
    latency_samples += st.answer_latency.count();
    latency_sum += st.answer_latency.sum();
  }
  r.hit_ratio = r.queries_answered == 0
                    ? 0.0
                    : static_cast<double>(r.hits) /
                          static_cast<double>(r.queries_answered);
  r.mean_answer_latency =
      latency_samples == 0 ? 0.0 : latency_sum / static_cast<double>(latency_samples);
  r.reports_broadcast = server_->stats().reports_broadcast;
  r.quiet_report_intervals = server_->stats().quiet_report_intervals;
  r.quiet_skipped_intervals = server_->stats().quiet_skipped_intervals;
  r.avg_report_bits = server_->stats().report_bits.mean();
  if (async_ != nullptr && measure_intervals_ > 0) {
    // Asynchronous mode has no periodic report; its per-interval broadcast
    // cost is the invalidation-message traffic averaged over the run.
    r.avg_report_bits = static_cast<double>(channel_->stats().report_bits) /
                        static_cast<double>(measure_intervals_);
  }
  const uint64_t decisions = r.reports_heard + r.reports_missed;
  r.measured_sleep_fraction =
      decisions == 0 ? 0.0
                     : static_cast<double>(r.reports_missed) /
                           static_cast<double>(decisions);
  // Batched updates no longer pass through the scheduler, but each was one
  // dispatched event under the per-event engine; count them back in so the
  // events/sec denominator measures the same simulated work either way.
  // Likewise intervals replayed by the quiet-stretch skip: each replaced a
  // broadcast tick and (when fully replayed) an elided-consumption dispatch.
  r.sim_events = sim_->DispatchedEvents() + updates_->batched_updates_applied() +
                 server_->skipped_dispatches();
  r.updates_applied = updates_->updates_generated();
  r.channel = channel_->stats();

  const StrategyEval eval = EvalFromMeasurements(config_.model, r.hit_ratio,
                                                 r.avg_report_bits);
  r.throughput = eval.throughput;
  r.effectiveness = eval.effectiveness;
  r.feasible = eval.feasible;
  return r;
}

}  // namespace mobicache
