#include "exp/megacell.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <limits>
#include <utility>

#include "exp/strategy_factory.h"
#include "mu/hot_state.h"
#include "mu/hotspot.h"
#include "mu/sleep_model.h"
#include "mu/uplink.h"
#include "mu/wake_index.h"
#include "util/random.h"

namespace mobicache {

namespace {
using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}
}  // namespace

/// One shard: a private simulator, a contiguous slice of the unit
/// population with its SoA hot state, per-shard replicas of the components
/// that are not safe (or not meaningful) to share across threads, and the
/// uplink whose chronological log the barrier replays.
struct MegaCell::Shard {
  explicit Shard(const Database* db) : uplink(&sim, db) {}

  /// Delivers one report to the slice by walking the awake bitmap in
  /// ascending local index — the global unit order within the slice.
  /// Sleepers are never visited; their missed counts are settled at harvest
  /// time as deliveries_completed - heard (see MegaCell::UnitStats).
  /// Returns how many units heard it — the barrier sums the counts across
  /// shards into the unheard-report counter.
  uint64_t FanOut(const Report& report, double listen_seconds) {
    uint64_t heard = 0;
    const std::vector<uint64_t>& words = wake_index.awake_words();
    for (size_t w = 0; w < words.size(); ++w) {
      uint64_t word = words[w];
      while (word != 0) {
        const size_t i =
            w * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        ++heard;
        ++soa.reports_heard[i];
        soa.listen_seconds[i] += listen_seconds;
        if (!answer_immediately) units[i]->OnReportDelivery(report);
      }
    }
    return heard;
  }

  /// Asynchronous-mode invalidation fan-out: one update's id message
  /// reaches this slice's awake units (the channel charge is replayed at
  /// the barrier from the update trace).
  void PushInvalidateAwake(ItemId id) {
    const std::vector<uint64_t>& words = wake_index.awake_words();
    for (size_t w = 0; w < words.size(); ++w) {
      uint64_t word = words[w];
      while (word != 0) {
        const size_t i =
            w * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        units[i]->PushInvalidate(id);
        ++async_deliveries;
      }
    }
  }

  /// SIG strategies: deterministic per-shard replica of the signature
  /// family (its membership rows, baseline pool and invalid-id scratch are
  /// written by this shard's diagnoses, so they are not thread-safe to
  /// share). Declared before `units` so it is destroyed after them: a unit's
  /// signature view releases its baseline into this pool on destruction.
  std::unique_ptr<SignatureFamily> family;
  /// TS strategies: this shard's decoding domain, one report decode shared
  /// by the slice's client managers (not thread-safe, so never shared
  /// across shards). Declared before `units`, which point into it.
  std::unique_ptr<TsReportIndex> ts_index;
  Simulator sim;
  /// Answers the slice's cache misses and logs them, plus the registry's
  /// channel charges, for the barrier replay. Declared before `units`,
  /// which point at it.
  Uplink uplink;
  MuHotSoA soa;
  /// The cell's unit kind: immediate-answer units (stateful, ideal and
  /// async cells) only count a report; report-driven units consume it.
  bool answer_immediately = false;
  /// Awake bitmap + wake horizon for this slice. Units publish transitions
  /// at their shard-phase ticks; the (serial) server phase reads every
  /// shard's index for the elision check — the phases never overlap.
  WakeIndex wake_index;
  std::vector<std::unique_ptr<MobileUnit>> units;
  /// Stateful baselines: per-shard registry replica over this slice's
  /// clients (channel charges routed into the uplink's log via the
  /// transmit sink).
  std::unique_ptr<StatefulRegistry> registry;
  /// Units heard per pending delivery this window (index-aligned with
  /// MegaCell::pending_deliveries_; sized in the shard phase, summed at the
  /// barrier).
  std::vector<uint64_t> delivery_heard;
  uint64_t async_deliveries = 0;
  /// Delivery and update-trace events scheduled into `sim`. Each mirrors
  /// one server-side event, so result() counts it once, not per shard.
  uint64_t replayed_events = 0;
  double wall_seconds = 0.0;
};

MegaCell::MegaCell(MegaCellConfig config) : config_(std::move(config)) {}

MegaCell::~MegaCell() {
  // The database's update observer references this object's trace buffer;
  // detach it before members are torn down.
  if (db_ != nullptr) db_->SetUpdateObserver(nullptr);
}

Status MegaCell::Build() {
  if (built_) return Status::FailedPrecondition("megacell already built");
  MOBICACHE_RETURN_IF_ERROR(NormalizeCellConfig(&config_.cell));
  if (config_.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (config_.num_shards > config_.cell.num_units) {
    return Status::InvalidArgument(
        "num_shards must not exceed num_units (empty shards would change "
        "nothing but waste threads)");
  }
  const CellConfig& cc = config_.cell;
  const ModelParams& m = cc.model;
  sizes_ = ComputeMessageSizes(m);

  // Seed chain: the server-side components first, then per-unit seeds drawn
  // in *global* unit order below, so every RNG stream is independent of the
  // shard count.
  uint64_t seed_state = cc.seed;
  const uint64_t db_seed = SplitMix64(&seed_state);
  const uint64_t update_seed = SplitMix64(&seed_state);
  const uint64_t family_seed = SplitMix64(&seed_state);
  const uint64_t delivery_seed = SplitMix64(&seed_state);
  const uint64_t hotspot_seed = SplitMix64(&seed_state);

  sim_ = std::make_unique<Simulator>();
  sim_->Reserve(1024);
  db_ = std::make_unique<Database>(m.n, db_seed);
  // Journal retention is armed by Server::Start from the strategy's
  // declaration (kNone for no-caching, kDirtySet for AT/SIG families, ...).
  if (cc.update_rates.empty()) {
    updates_ = std::make_unique<UpdateGenerator>(sim_.get(), db_.get(), m.mu,
                                                 update_seed);
  } else {
    updates_ = std::make_unique<UpdateGenerator>(
        sim_.get(), db_.get(), cc.update_rates, update_seed);
  }
  channel_ = std::make_unique<Channel>(sim_.get(), m.W);
  delivery_ = std::make_unique<DeliveryModel>(
      cc.delivery, cc.mean_jitter_seconds, delivery_seed);
  family_ = MakeSignatureFamilyForCell(cc, family_seed);
  walk_ = MakeNumericWalkForCell(cc, db_seed);

  stateful_mode_ = cc.strategy == StrategyKind::kIdeal ||
                   cc.strategy == StrategyKind::kStateful;
  async_mode_ = cc.strategy == StrategyKind::kAsync;
  trace_updates_ = stateful_mode_ || async_mode_;
  if (trace_updates_) {
    db_->SetUpdateObserver([this](ItemId id, SimTime t) {
      update_trace_.push_back(TraceRecord{t, id});
    });
  }

  StrategyFactoryContext server_ctx;
  server_ctx.config = &config_.cell;
  server_ctx.sizes = sizes_;
  server_ctx.db = db_.get();
  server_ctx.family = family_.get();
  server_ctx.walk = walk_.get();

  ServerConfig sc;
  sc.latency = m.L;
  sc.sizes = sizes_;
  sc.quiet_elision = cc.quiet_elision;
  server_ = std::make_unique<Server>(sim_.get(), db_.get(), channel_.get(),
                                     MakeServerStrategy(server_ctx),
                                     delivery_.get(), sc);
  server_->SetDeliverySink([this](Server::ReportDelivery d) {
    pending_deliveries_.push_back(std::move(d));
  });
  // The server pumps the update stream at its observation points; one more
  // pump at the window barrier leaves the shards a database advanced
  // exactly to the cut, and the stateful/async trace holding every update
  // of the window.
  server_->SetUpdatePump(updates_.get());

  // Contiguous partition: shard s holds global units
  // [shard_offset_[s], shard_offset_[s + 1]), the first `rem` shards one
  // unit larger. Contiguity is what makes (time, shard) replay order equal
  // the global unit order at equal times.
  const uint64_t num_shards = config_.num_shards;
  const uint64_t base = cc.num_units / num_shards;
  const uint64_t rem = cc.num_units % num_shards;
  shard_offset_.assign(num_shards + 1, 0);
  for (uint64_t s = 0; s < num_shards; ++s) {
    shard_offset_[s + 1] = shard_offset_[s] + base + (s < rem ? 1 : 0);
  }

  const StatefulMode mode = cc.strategy == StrategyKind::kIdeal
                                ? StatefulMode::kIdeal
                                : StatefulMode::kStateful;
  const bool sig_strategy = family_ != nullptr;
  const bool answer_immediately = stateful_mode_ || async_mode_;
  shards_.reserve(num_shards);
  for (uint64_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>(db_.get());
    const uint64_t count = shard_offset_[s + 1] - shard_offset_[s];
    shard->soa.Resize(count);
    shard->wake_index.Resize(count);
    // The server aggregates the shards' indexes for its elision and skip
    // checks; fan-out happens shard-side through the delivery sink.
    server_->AttachWakeIndex(&shard->wake_index);
    shard->answer_immediately = answer_immediately;
    shard->units.reserve(count);
    // One pending tick per unit plus headroom. An immediate-answer cell
    // also queues each awake unit's interval of answer events at its tick
    // (λ·|hot spot|·L each); past this, the pool grows to its warm-up
    // high-water mark.
    shard->sim.Reserve(2 * count + 1024);
    if (sig_strategy) {
      shard->family = MakeSignatureFamilyForCell(cc, family_seed);
    }
    shard->ts_index = MakeTsReportIndexForCell(cc);
    if (stateful_mode_) {
      shard->registry = std::make_unique<StatefulRegistry>(
          mode, /*channel=*/nullptr, sizes_);
      Uplink* uplink = &shard->uplink;
      shard->registry->SetTransmitSink(
          [uplink](uint64_t bits, TrafficClass cls) {
            uplink->LogTransmit(bits, cls);
          });
    }
    shards_.push_back(std::move(shard));
  }

  Rng hotspot_rng(hotspot_seed);
  const std::vector<ItemId> shared =
      ContiguousHotSpot(m.n, 0, cc.hotspot_size);
  uint64_t s = 0;
  for (uint64_t i = 0; i < cc.num_units; ++i) {
    while (i >= shard_offset_[s + 1]) ++s;
    Shard& sh = *shards_[s];
    const uint32_t local = static_cast<uint32_t>(i - shard_offset_[s]);

    const std::vector<ItemId> hotspot =
        !cc.custom_hotspots.empty()
            ? cc.custom_hotspots[i]
            : (cc.shared_hotspot
                   ? shared
                   : RandomHotSpot(m.n, cc.hotspot_size, hotspot_rng));

    MobileUnitConfig mc;
    mc.latency = m.L;
    mc.lambda_per_item = m.lambda;
    mc.hotspot = hotspot;
    mc.answer_immediately = answer_immediately;
    mc.drop_cache_on_wake =
        cc.strategy == StrategyKind::kStateful || async_mode_;
    mc.cache_capacity = cc.cache_capacity;
    mc.unit_id = static_cast<uint32_t>(i);
    mc.query_zipf_theta = cc.query_zipf_theta;

    std::unique_ptr<SleepModel> sleep;
    const uint64_t mu_seed = SplitMix64(&seed_state);
    if (cc.renewal_sleep) {
      sleep = std::make_unique<RenewalSleepModel>(
          m.L, cc.mean_awake_seconds, cc.mean_sleep_seconds,
          mu_seed ^ 0x9e3779b9);
    } else {
      sleep = std::make_unique<BernoulliSleepModel>(m.s,
                                                    mu_seed ^ 0x9e3779b9);
    }

    StrategyFactoryContext shard_ctx;
    shard_ctx.config = &config_.cell;
    shard_ctx.sizes = sizes_;
    shard_ctx.db = db_.get();
    shard_ctx.family = sig_strategy ? sh.family.get() : nullptr;
    shard_ctx.ts_index = sh.ts_index.get();
    shard_ctx.walk = walk_.get();

    auto unit = std::make_unique<MobileUnit>(
        &sh.sim, std::move(mc), MakeClientManager(shard_ctx, hotspot),
        std::move(sleep), &sh.uplink, mu_seed);
    if (stateful_mode_) unit->BindStatefulRegistry(sh.registry.get());
    unit->BindWakeIndex(&sh.wake_index, local);
    sh.units.push_back(std::move(unit));
  }

  gang_ = std::make_unique<LockstepGang>(
      static_cast<unsigned>(config_.num_shards));
  built_ = true;
  return Status::OK();
}

void MegaCell::ReplayWindow() {
  // A delivered report was quiet when no shard's slice heard it. (The
  // server counted the intervals it elided.)
  for (size_t k = 0; k < pending_deliveries_.size(); ++k) {
    uint64_t heard = 0;
    for (const auto& shard : shards_) heard += shard->delivery_heard[k];
    if (heard == 0) ++unheard_reports_;
  }

  // K-way merge of the per-shard logs (each already time-sorted) plus, in
  // asynchronous mode, the update trace (each update is one id-sized
  // broadcast message). Ties break toward the trace, then lower shard — at
  // equal times the contiguous partition makes that exactly the global unit
  // order, which is the order one simulator over every unit would produce.
  //
  // The selector is a loser tree over source ranks: rank 0 is the trace and
  // higher ranks are shard-ordered, so the tree's (key, rank) order IS the
  // replay contract. With >= 4 shards the gang first merges adjacent shard
  // pairs in parallel (pair p = shards {2p, 2p+1}; in-pair ties take the
  // lower shard), and the serial tree runs over pairs instead of shards —
  // same total order, half the serial comparisons.
  const size_t num_shards = shards_.size();
  const auto consume = [this](const Uplink::LogRecord& rec) {
    if (rec.kind == Uplink::LogRecord::kUplink) {
      server_->AccountUplinkQuery(rec.info);
    } else {
      channel_->Transmit(rec.bits, rec.cls);
    }
  };
  const auto consume_trace = [this] {
    channel_->Transmit(sizes_.id_bits, TrafficClass::kReport);
    ++async_messages_;
  };
  const size_t trace_end = async_mode_ ? update_trace_.size() : 0;
  size_t trace_head = 0;

  if (num_shards >= 4) {
    // Parallel pairwise pre-merge on the gang lanes: lane p two-pointer
    // merges shards 2p and 2p+1 into a reused reference buffer.
    const size_t num_pairs = (num_shards + 1) / 2;
    if (premerged_.size() < num_pairs) premerged_.resize(num_pairs);
    gang_->Run([this](unsigned lane) {
      const size_t num_sh = shards_.size();
      const size_t a = 2 * static_cast<size_t>(lane);
      if (a >= num_sh) return;
      const size_t b = a + 1;
      const std::vector<Uplink::LogRecord>& la = shards_[a]->uplink.log();
      const bool has_b = b < num_sh;
      const std::vector<Uplink::LogRecord>& lb =
          has_b ? shards_[b]->uplink.log() : la;
      std::vector<MergedRef>& out = premerged_[lane];
      out.clear();
      out.reserve(la.size() + (has_b ? lb.size() : 0));
      size_t i = 0;
      size_t j = has_b ? 0 : lb.size();
      while (i < la.size() && j < lb.size()) {
        // Ties take shard a — the lower shard index.
        if (la[i].time <= lb[j].time) {
          out.push_back(MergedRef{la[i].time, static_cast<uint32_t>(a),
                                  static_cast<uint32_t>(i)});
          ++i;
        } else {
          out.push_back(MergedRef{lb[j].time, static_cast<uint32_t>(b),
                                  static_cast<uint32_t>(j)});
          ++j;
        }
      }
      for (; i < la.size(); ++i) {
        out.push_back(MergedRef{la[i].time, static_cast<uint32_t>(a),
                                static_cast<uint32_t>(i)});
      }
      if (has_b) {
        for (; j < lb.size(); ++j) {
          out.push_back(MergedRef{lb[j].time, static_cast<uint32_t>(b),
                                  static_cast<uint32_t>(j)});
        }
      }
    });

    merger_.Reset(num_pairs + 1);
    if (trace_end > 0) merger_.SetHead(0, update_trace_[0].time);
    replay_heads_.assign(num_pairs, 0);
    for (size_t p = 0; p < num_pairs; ++p) {
      if (!premerged_[p].empty()) merger_.SetHead(p + 1, premerged_[p][0].time);
    }
    merger_.Build();
    while (!merger_.exhausted()) {
      const size_t rank = merger_.top();
      if (rank == 0) {
        consume_trace();
        ++trace_head;
        merger_.Advance(trace_head < trace_end
                            ? update_trace_[trace_head].time
                            : LoserTreeMerger::kExhausted);
      } else {
        const std::vector<MergedRef>& refs = premerged_[rank - 1];
        const size_t h = replay_heads_[rank - 1]++;
        const MergedRef& ref = refs[h];
        consume(shards_[ref.shard]->uplink.log()[ref.index]);
        merger_.Advance(h + 1 < refs.size() ? refs[h + 1].time
                                            : LoserTreeMerger::kExhausted);
      }
      ++replay_records_;
    }
  } else {
    merger_.Reset(num_shards + 1);
    if (trace_end > 0) merger_.SetHead(0, update_trace_[0].time);
    replay_heads_.assign(num_shards, 0);
    for (size_t s = 0; s < num_shards; ++s) {
      const std::vector<Uplink::LogRecord>& log = shards_[s]->uplink.log();
      if (!log.empty()) merger_.SetHead(s + 1, log[0].time);
    }
    merger_.Build();
    while (!merger_.exhausted()) {
      const size_t rank = merger_.top();
      if (rank == 0) {
        consume_trace();
        ++trace_head;
        merger_.Advance(trace_head < trace_end
                            ? update_trace_[trace_head].time
                            : LoserTreeMerger::kExhausted);
      } else {
        const std::vector<Uplink::LogRecord>& log =
            shards_[rank - 1]->uplink.log();
        const size_t h = replay_heads_[rank - 1]++;
        consume(log[h]);
        merger_.Advance(h + 1 < log.size() ? log[h + 1].time
                                           : LoserTreeMerger::kExhausted);
      }
      ++replay_records_;
    }
  }

  for (auto& shard : shards_) shard->uplink.ClearLog();
  update_trace_.clear();
  pending_deliveries_.clear();
}

void MegaCell::AdvanceWindow(SimTime cut, bool inclusive) {
  // Server phase: broadcast ticks, update stream, delivery completions.
  // Exclusive cuts leave the boundary's own events (the next tick wave) to
  // the following window, so replayed uplinks with time < T_i reach the
  // strategy before the T_i report is built.
  WallClock::time_point t0 = WallClock::now();
  if (inclusive) {
    sim_->RunUntil(cut);
  } else {
    sim_->RunUntilBefore(cut);
  }
  // The shard phase answers uplinks from the quiescent database; drain the
  // update stream to the cut (matching inclusivity) so it holds every
  // update the window covers, and the stateful/async trace lists them all.
  updates_->GenerateIntervalUpdates(cut, inclusive);
  server_wall_seconds_ += SecondsSince(t0);

  // Shard phase: one lane per shard, pinned (lane == shard index). The
  // delivery sink only fires inside server events, so every pending
  // delivery's completion time lies in this window — each shard replays all
  // of them plus the update trace, then advances to the same cut. The
  // window bounds travel via members so the gang closure captures only
  // `this` (fits std::function's inline buffer — no per-window allocation).
  window_cut_ = cut;
  window_inclusive_ = inclusive;
  t0 = WallClock::now();
  gang_->Run([this](unsigned lane) {
    Shard& sh = *shards_[lane];
    const WallClock::time_point s0 = WallClock::now();
    const size_t deliveries = pending_deliveries_.size();
    if (sh.delivery_heard.size() < deliveries) {
      sh.delivery_heard.resize(deliveries);
    }
    std::fill_n(sh.delivery_heard.begin(),
                static_cast<ptrdiff_t>(deliveries), 0);
    for (size_t k = 0; k < deliveries; ++k) {
      // Pointer capture: pending_deliveries_ is frozen for the whole shard
      // phase, and a by-value ReportDelivery capture would copy its
      // shared_ptr (two refcount RMWs per shard per delivery).
      const Server::ReportDelivery* d = &pending_deliveries_[k];
      Shard* raw = &sh;
      sh.sim.ScheduleAt(d->done, [raw, d, k] {
        raw->delivery_heard[k] = raw->FanOut(*d->report, d->listen_seconds);
      });
    }
    sh.replayed_events += deliveries;
    if (trace_updates_) {
      sh.replayed_events += update_trace_.size();
      for (const TraceRecord& u : update_trace_) {
        Shard* raw = &sh;
        if (stateful_mode_) {
          sh.sim.ScheduleAt(u.time, [raw, u] {
            raw->registry->OnUpdate(u.id, u.time);
          });
        } else {
          sh.sim.ScheduleAt(u.time, [raw, id = u.id] {
            raw->PushInvalidateAwake(id);
          });
        }
      }
    }
    if (window_inclusive_) {
      sh.sim.RunUntil(window_cut_);
    } else {
      sh.sim.RunUntilBefore(window_cut_);
    }
    sh.wall_seconds += SecondsSince(s0);
  });
  shard_phase_wall_seconds_ += SecondsSince(t0);

  // Barrier: replay the merged shard logs onto the server and channel.
  t0 = WallClock::now();
  ReplayWindow();
  replay_wall_seconds_ += SecondsSince(t0);
}

void MegaCell::ResetAllStats() {
  server_->ResetStats();
  channel_->ResetStats();
  async_messages_ = 0;
  unheard_reports_ = 0;
  for (auto& shard : shards_) {
    if (shard->registry != nullptr) shard->registry->ResetStats();
    shard->async_deliveries = 0;
    for (auto& unit : shard->units) unit->ResetStats();
    shard->soa.ResetStats();
  }
}

Status MegaCell::Run(uint64_t warmup_intervals, uint64_t measure_intervals) {
  if (!built_) return Status::FailedPrecondition("Build() first");
  if (ran_) return Status::FailedPrecondition("megacell already ran");
  if (measure_intervals == 0) {
    return Status::InvalidArgument("need at least one measured interval");
  }

  MOBICACHE_RETURN_IF_ERROR(updates_->Start());
  // Units start before the server: each unit's sleep decision for an
  // interval precedes that interval's report delivery.
  bool observed = false;
  for (auto& shard : shards_) {
    for (auto& unit : shard->units) {
      MOBICACHE_RETURN_IF_ERROR(unit->Start());
      observed = observed || unit->has_answer_observer();
    }
  }
  if (observed) {
    // Answer observers audit answered values against historical ground
    // truth (ValueAt), which needs raw journal entries no matter how little
    // the strategy itself retains, and fetched values as of their instant.
    server_->SetRetentionFloor(JournalRetention::kFullWindow);
    for (auto& shard : shards_) shard->uplink.set_exact(true);
  }
  MOBICACHE_RETURN_IF_ERROR(server_->Start());

  const double L = config_.cell.model.L;
  const SimTime warmup_end =
      static_cast<double>(warmup_intervals) * L + 0.5 * L;
  const SimTime end =
      warmup_end + static_cast<double>(measure_intervals) * L;

  uint64_t w = 0;
  while (w < warmup_intervals) {
    w = WindowEnd(w, warmup_intervals);
    AdvanceWindow(static_cast<double>(w) * L, /*inclusive=*/false);
  }
  AdvanceWindow(warmup_end, /*inclusive=*/true);
  ResetAllStats();
  while (w < warmup_intervals + measure_intervals) {
    w = WindowEnd(w, warmup_intervals + measure_intervals);
    AdvanceWindow(static_cast<double>(w) * L, /*inclusive=*/false);
  }
  AdvanceWindow(end, /*inclusive=*/true);

  server_->Stop();
  updates_->Stop();
  measure_intervals_ = measure_intervals;
  ran_ = true;

  shard_stats_.clear();
  shard_stats_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    MegaCellShardStats st;
    st.num_units = shard_offset_[s + 1] - shard_offset_[s];
    st.sim_events = shards_[s]->sim.DispatchedEvents();
    st.wall_seconds = shards_[s]->wall_seconds;
    shard_stats_.push_back(st);
  }
  return Status::OK();
}

uint64_t MegaCell::WindowEnd(uint64_t from, uint64_t limit) {
  uint64_t to = from + 1;
  if (to >= limit || trace_updates_ || !server_->CanElideQuietIntervals()) {
    return to;
  }
  SimTime earliest = std::numeric_limits<SimTime>::infinity();
  for (auto& shard : shards_) {
    // An awake unit could hear a report: keep the window to one interval
    // so it never holds more than one delivered report.
    if (shard->wake_index.awake_count() != 0) return to;
    earliest = std::min(earliest, shard->sim.NextEventTime());
  }
  const double L = config_.cell.model.L;
  while (to < limit && static_cast<double>(to + 1) * L <= earliest) ++to;
  return to;
}

std::vector<MobileUnit*> MegaCell::units() {
  std::vector<MobileUnit*> out;
  out.reserve(config_.cell.num_units);
  for (auto& shard : shards_) {
    for (auto& unit : shard->units) out.push_back(unit.get());
  }
  return out;
}

MobileUnitStats MegaCell::UnitStats(uint64_t global_index) const {
  assert(global_index < config_.cell.num_units);
  size_t s = 0;
  while (global_index >= shard_offset_[s + 1]) ++s;
  const Shard& sh = *shards_[s];
  const size_t local = global_index - shard_offset_[s];
  // Fold the SoA-owned broadcast counters into the unit's own stats. The
  // unit's copies of those fields are identically zero for bound units, so
  // the fold is exact (0 + x) and the listen_seconds accumulation order is
  // the unit's own delivery order. The bitmap fan-out never visits
  // sleepers, so missed counts are settled here from the identity
  // missed = deliveries_completed - heard (elided deliveries included —
  // nobody heard those by construction).
  MobileUnitStats st = sh.units[local]->stats();
  st.reports_heard += sh.soa.reports_heard[local];
  st.listen_seconds += sh.soa.listen_seconds[local];
  st.reports_missed = server_->deliveries_completed() - st.reports_heard;
  return st;
}

CellResult MegaCell::result() const {
  CellResult r;
  uint64_t latency_samples = 0;
  double latency_sum = 0.0;
  // Global unit order (shard-major over the contiguous partition), so the
  // floating-point accumulation order is the same at any shard count.
  for (uint64_t i = 0; i < config_.cell.num_units; ++i) {
    const MobileUnitStats st = UnitStats(i);
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
      latency_samples == 0
          ? 0.0
          : latency_sum / static_cast<double>(latency_samples);
  r.reports_broadcast = server_->stats().reports_broadcast;
  r.quiet_report_intervals =
      server_->stats().quiet_report_intervals + unheard_reports_;
  r.quiet_skipped_intervals = server_->stats().quiet_skipped_intervals;
  r.avg_report_bits = server_->stats().report_bits.mean();
  if (async_mode_ && measure_intervals_ > 0) {
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
  // Updates and the quiet skip's inline replays are simulated events that
  // bypass the scheduler, so they count into the denominator; a delivery or
  // trace event replayed into every shard counts once.
  r.sim_events = sim_->DispatchedEvents() + updates_->updates_generated() +
                 server_->skipped_dispatches();
  for (const auto& shard : shards_) {
    r.sim_events += shard->sim.DispatchedEvents() - shard->replayed_events;
  }
  r.updates_applied = updates_->updates_generated();
  r.channel = channel_->stats();

  const StrategyEval eval = EvalFromMeasurements(
      config_.cell.model, r.hit_ratio, r.avg_report_bits);
  r.throughput = eval.throughput;
  r.effectiveness = eval.effectiveness;
  r.feasible = eval.feasible;
  return r;
}

uint64_t MegaCell::registry_control_messages() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->registry != nullptr) total += shard->registry->control_messages();
  }
  return total;
}

uint64_t MegaCell::registry_invalidations_sent() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->registry != nullptr) {
      total += shard->registry->invalidations_sent();
    }
  }
  return total;
}

uint64_t MegaCell::registry_invalidations_missed_asleep() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->registry != nullptr) {
      total += shard->registry->invalidations_missed_asleep();
    }
  }
  return total;
}

uint64_t MegaCell::async_deliveries() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->async_deliveries;
  return total;
}

}  // namespace mobicache
