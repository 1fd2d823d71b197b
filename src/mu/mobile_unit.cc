#include "mu/mobile_unit.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mobicache {

namespace {
/// Upper bound on how many future sleep decisions one fast-forward scan may
/// draw. A bound is required for degenerate models that never flip (s = 1.0
/// forever-sleepers, or s = 0.0 zero-rate units): the scan stops here and
/// schedules a continuation tick — one event per kMaxFastForwardScan
/// intervals — which re-enters the scan. It also caps wasted draws past the
/// end of a finite run (the scan cannot know when the simulation stops).
constexpr uint64_t kMaxFastForwardScan = 64;

/// Cap on recycled batch vectors kept per unit. One covers the steady state
/// (one group sealed and drained per interval); a few more absorb missed-
/// report pile-ups without hoarding memory across 10^6 units.
constexpr size_t kMaxSpareBatchVectors = 4;
}  // namespace

MobileUnit::MobileUnit(Simulator* sim, MobileUnitConfig config,
                       std::unique_ptr<ClientCacheManager> manager,
                       std::unique_ptr<SleepModel> sleep,
                       Uplink* uplink, uint64_t seed)
    : sim_(sim),
      config_(std::move(config)),
      manager_(std::move(manager)),
      sleep_(std::move(sleep)),
      uplink_(uplink),
      rng_(seed),
      cache_(config_.cache_capacity) {
  assert(config_.latency > 0.0);
  assert(!config_.hotspot.empty());
  assert(config_.lambda_per_item >= 0.0);
  total_query_rate_ =
      config_.lambda_per_item * static_cast<double>(config_.hotspot.size());
  if (config_.query_zipf_theta > 0.0) {
    query_zipf_ = std::make_unique<ZipfDistribution>(
        config_.hotspot.size(), config_.query_zipf_theta);
  }
}

MobileUnit::~MobileUnit() { sim_->Cancel(pending_tick_); }

Status MobileUnit::Start() {
  if (started_) {
    return Status::FailedPrecondition("mobile unit already started");
  }
  started_ = true;
  pending_tick_time_ = sim_->Now();
  pending_tick_ = sim_->ScheduleAt(sim_->Now(), [this] { OnIntervalTick(0); });
  return Status::OK();
}

void MobileUnit::BindStatefulRegistry(StatefulRegistry* registry) {
  registry_ = registry;
  registry_id_ = registry->RegisterClient(
      [this](ItemId id) { PushInvalidate(id); }, [this]() { return awake_; });
}

void MobileUnit::BindWakeIndex(WakeIndex* index, uint32_t slot) {
  assert(index != nullptr && slot < index->size());
  assert(!started_ && "bind the wake index before Start()");
  wake_index_ = index;
  wake_slot_ = slot;
  // The index starts all-awake (conservative); the first tick corrects it.
}

void MobileUnit::OnIntervalTick(uint64_t interval) {
  bool awake_now;
  if (has_predrawn_) {
    assert(predrawn_interval_ == interval);
    awake_now = predrawn_awake_;
    has_predrawn_ = false;
  } else {
    awake_now = sleep_->AwakeForInterval(interval);
  }

  if (ever_decided_) {
    if (awake_now && !awake_) {
      if (registry_ != nullptr) registry_->OnClientWake(registry_id_);
      if (config_.drop_cache_on_wake) cache_.Clear();
    } else if (!awake_now && awake_) {
      if (registry_ != nullptr) registry_->OnClientSleep(registry_id_);
    }
  }
  awake_ = awake_now;
  ever_decided_ = true;

  // Seal the previous interval's arrivals: they may be answered by the
  // report of this interval (index `interval`) or any later one; anything
  // arriving from here on must wait for the next report.
  if (!arriving_.empty()) {
    // Moves the batch into the pending queue; the queue's own storage is
    // cleared (capacity retained) every time it drains, and batch storage
    // recycles through spare_batches_. detlint:allow(alloc-event-path)
    pending_groups_.push_back(SealedGroup{interval, std::move(arriving_)});
    arriving_.clear();
    if (!spare_batches_.empty()) {
      // Take a drained group's warm storage so the next interval's arrivals
      // insert into reserved capacity instead of growing from empty.
      arriving_ = std::move(spare_batches_.back());
      spare_batches_.pop_back();
      arriving_.clear();
    }
  }

  if (awake_) {
    // The user poses queries throughout the interval, independent of when
    // (or whether) the report physically lands.
    const SimTime interval_end = sim_->Now() + config_.latency;
    if (config_.answer_immediately) {
      // One answer event per arrival, at its instant: each answer reads the
      // cache and registry state of that moment, and its fetch interleaves
      // with other units' traffic exactly as scheduled. The event counts
      // the query when it fires, so a statistics reset between the tick and
      // the arrival leaves it counted in the new period.
      GenerateIntervalArrivals(interval_end, [this](ItemId item, SimTime t) {
        sim_->ScheduleAt(t, [this, item] { OnQueryArrival(item); });
      });
    } else {
      GenerateIntervalArrivals(interval_end, [this](ItemId item, SimTime t) {
        ++stats_.queries_issued;
        RecordArrival(item, t);
      });
    }
  }

  ScheduleNextTick(interval);
}

void MobileUnit::ScheduleNextTick(uint64_t interval) {
  // Awake units with a live query stream tick every interval (each tick
  // seals the previous interval's arrivals and materializes the next
  // interval's). Idle units — asleep, or awake with nothing to ask — only
  // need a tick when their sleep state flips, so scan ahead: every decision
  // the per-interval engine would have drawn is drawn here, same stream,
  // same order, and the first differing one is buffered for the single tick
  // this schedules.
  uint64_t next = interval + 1;
  SimTime when = sim_->Now() + config_.latency;
  const bool idle = !awake_ || total_query_rate_ <= 0.0;
  if (idle) {
    const uint64_t horizon = interval + WakeIndex::kMaxLookaheadIntervals;
    for (uint64_t scanned = 1;; ++scanned) {
      if (!awake_) {
        // Mid-nap hop: intervals the model has already determined (asleep,
        // draw-free) are skipped outright, without spending the scan's
        // draw budget. Clamped to the wake index's lookahead horizon; a
        // clamped hop schedules a plain continuation tick with no predrawn
        // decision (OnIntervalTick consults the model then) — still zero
        // draws across the whole nap.
        uint64_t hop = sleep_->NextPossiblyAwakeInterval(next);
        if (hop > horizon) hop = horizon;
        // Repeated addition, not multiplication: tick times must remain
        // the exact doubles the per-interval schedule would have produced.
        for (; next < hop; ++next) when += config_.latency;
        if (next >= horizon) break;
      }
      const bool decision = sleep_->AwakeForInterval(next);
      if (decision != awake_ || scanned >= kMaxFastForwardScan) {
        has_predrawn_ = true;
        predrawn_awake_ = decision;
        predrawn_interval_ = next;
        break;
      }
      ++next;
      // Same exactness argument as the hop above.
      when += config_.latency;
    }
  }
  pending_tick_time_ = when;
  pending_tick_ =
      sim_->ScheduleAt(when, [this, next] { OnIntervalTick(next); });
  if (wake_index_ != nullptr) {
    // Publish the transition the tick just decided: awake units occupy the
    // bitmap; a sleeping unit registers the wake tick this scan scheduled —
    // exactly NextWakeTime() — so the server can bound the cell's next
    // audible instant without touching any unit.
    if (awake_) {
      wake_index_->MarkAwake(wake_slot_);
    } else {
      wake_index_->MarkAsleep(wake_slot_, next, when);
    }
  }
}

template <typename Sink>
void MobileUnit::GenerateIntervalArrivals(SimTime interval_end, Sink sink) {
  if (total_query_rate_ <= 0.0) return;
  // Exponential gap first; if it lands in the interval, then the item pick —
  // repeat. Nothing else draws from rng_, so the stream is the same whether
  // a unit draws here or one arrival per event.
  SimTime t = sim_->Now();
  for (;;) {
    t += rng_.Exponential(total_query_rate_);
    if (t >= interval_end) return;
    const ItemId item =
        config_.hotspot[query_zipf_ != nullptr
                            ? query_zipf_->Sample(rng_)
                            : rng_.NextUint64(config_.hotspot.size())];
    sink(item, t);
  }
}

void MobileUnit::RecordArrival(ItemId id, SimTime t) {
  const auto it = std::lower_bound(
      arriving_.begin(), arriving_.end(), id,
      [](const PendingBatch& b, ItemId v) { return b.id < v; });
  if (it != arriving_.end() && it->id == id) return;  // keeps first arrival
  // Sorted insert into warm batch storage recycled via spare_batches_; at
  // steady state capacity is already there. detlint:allow(alloc-event-path)
  arriving_.insert(it, PendingBatch{id, t});
}

void MobileUnit::OnReportDelivery(const Report& report) {
  stats_.items_invalidated += manager_->OnReport(report, &cache_);
  // Answer every sealed group this report's snapshot covers, merging
  // same-item batches across groups (they share one answer and at most one
  // uplink request).
  const SimTime validity_ts = ReportTimestamp(report);
  const uint64_t interval = ReportInterval(report);
  eligible_scratch_.clear();
  while (pending_head_ < pending_groups_.size() &&
         pending_groups_[pending_head_].answerable_from <= interval) {
    for (const PendingBatch& b : pending_groups_[pending_head_].batches) {
      const auto it = std::lower_bound(
          eligible_scratch_.begin(), eligible_scratch_.end(), b.id,
          [](const PendingBatch& e, ItemId v) { return e.id < v; });
      if (it != eligible_scratch_.end() && it->id == b.id) {
        if (b.first < it->first) it->first = b.first;
      } else {
        // Member scratch, capacity retained across reports.
        // detlint:allow(alloc-event-path)
        eligible_scratch_.insert(it, b);
      }
    }
    ++pending_head_;  // O(1) pop; storage reclaimed when the queue drains
  }
  if (pending_head_ == pending_groups_.size()) {
    // Recycle the drained groups' batch storage before dropping them; the
    // steady state then seals every interval into a warm vector.
    for (SealedGroup& g : pending_groups_) {
      if (spare_batches_.size() >= kMaxSpareBatchVectors) break;
      g.batches.clear();
      // Spare pool is capped at kMaxSpareBatchVectors; the push moves the
      // drained vector's storage. detlint:allow(alloc-event-path)
      spare_batches_.push_back(std::move(g.batches));
    }
    pending_groups_.clear();
    pending_head_ = 0;
  }
  for (const PendingBatch& b : eligible_scratch_) {
    AnswerBatch(b.id, b.first, validity_ts);
  }
}

void MobileUnit::OnQueryArrival(ItemId id) {
  ++stats_.queries_issued;
  AnswerBatch(id, sim_->Now(), sim_->Now());
}

void MobileUnit::AnswerBatch(ItemId id, SimTime first_issued,
                             SimTime validity_ts) {
  const SimTime now = sim_->Now();
  uint64_t value = 0;
  bool hit = false;

  if (manager_->CanAnswerFromCache(id, now, cache_)) {
    const CacheEntry* entry = cache_.Get(id);
    if (entry != nullptr) {
      value = entry->value;
      hit = true;
      manager_->OnLocalHit(id, now);
    }
  }

  if (!hit) {
    UplinkQueryInfo info;
    info.id = id;
    info.time = now;
    info.client_id = config_.unit_id;
    info.local_hit_times = manager_->TakePiggyback(id);
    const Uplink::FetchResult result = uplink_->FetchItem(std::move(info));
    value = result.value;
    manager_->OnUplinkFetch(id, result.value, result.server_time, &cache_);
    if (registry_ != nullptr && cache_.Contains(id)) {
      registry_->OnClientCached(registry_id_, id);
    }
  }

  ++stats_.queries_answered;
  if (hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  stats_.answer_latency.Add(now - first_issued);
  if (answer_observer_) answer_observer_(id, value, validity_ts, hit);
}

}  // namespace mobicache
