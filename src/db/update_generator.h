// Poisson update workload driving the server database. The paper's model
// updates every item independently at rate mu; we simulate the equivalent
// superposed process (one exponential clock at rate n*mu, uniform item
// choice), which also generalizes to non-uniform per-item weights (Zipf)
// for the weighted-signature / adaptive-window extensions.
//
// Two delivery modes share one RNG stream:
//
//  * Per-event (default): every update is its own scheduled event
//    (ScheduleNext/Fire), interleaved with the rest of the simulation. This
//    is required when an update observer has simulation side effects at the
//    update instant (the stateful-server invalidation push, the async
//    broadcaster, MegaCell's update trace).
//  * Batched (EnableBatchMode): the generator holds the predrawn next
//    (time, item) pair and GenerateIntervalUpdates drains everything due
//    before a pump point in one tight loop through
//    Database::ApplyUpdateBatch — zero scheduler traffic for ~all of the
//    hottest event class. The pump points (server broadcast head, uplink
//    fetch, delivery consumption, the sharded engine's window barrier, and
//    the end-of-run drain) are exactly the places a reader can first
//    observe an update, so the database trajectory every reader sees —
//    values, journal buckets, observer call order, timestamps — is
//    bit-identical to the per-event interleaving.
//
// The RNG draw order is identical in both modes: one (gap, item) pair per
// cycle, drawn one update ahead of its application.

#ifndef MOBICACHE_DB_UPDATE_GENERATOR_H_
#define MOBICACHE_DB_UPDATE_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "db/database.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/status.h"

namespace mobicache {

/// Streams updates into a Database according to independent per-item Poisson
/// processes.
class UpdateGenerator {
 public:
  /// Uniform profile: every item updates at rate `mu_per_item` (>= 0).
  UpdateGenerator(Simulator* sim, Database* db, double mu_per_item,
                  uint64_t seed);

  /// Weighted profile: item i updates at rate `rates[i]` (all >= 0); the
  /// vector size must equal db->size().
  UpdateGenerator(Simulator* sim, Database* db, std::vector<double> rates,
                  uint64_t seed);

  UpdateGenerator(const UpdateGenerator&) = delete;
  UpdateGenerator& operator=(const UpdateGenerator&) = delete;
  ~UpdateGenerator();

  /// Switches to batched-interval mode (see the file comment). Must be
  /// called before Start(); preallocates the batch staging buffers so the
  /// drain loop never allocates.
  void EnableBatchMode();
  bool batch_mode() const { return batch_mode_; }

  /// Begins generating updates from the current simulation time. Returns
  /// FailedPrecondition if already started. A zero total rate is legal and
  /// generates nothing.
  Status Start();

  /// Stops generating. Per-event mode cancels the pending update event;
  /// batch mode first drains updates due at or before the current
  /// simulation time (matching the per-event engine, which has dispatched
  /// exactly those when a run stops at Now()). Idempotent.
  void Stop();

  /// Batch mode: applies every pending update with time < `through`
  /// (<= `through` when `inclusive`) via Database::ApplyUpdateBatch. No-op
  /// in per-event mode, before Start(), or when nothing is due — callers
  /// pump unconditionally from every observation point.
  void GenerateIntervalUpdates(SimTime through, bool inclusive);

  /// Per-item rate for `id`.
  double RateOf(ItemId id) const;

  /// Sum of all per-item rates.
  double total_rate() const { return total_rate_; }

  uint64_t updates_generated() const { return updates_generated_; }

  /// Updates applied through the batched path. Each of these was one
  /// dispatched simulator event before batching, so engines add this to
  /// DispatchedEvents() when reporting the events/sec denominator.
  uint64_t batched_updates_applied() const { return batched_applied_; }

  /// Wall time spent inside GenerateIntervalUpdates over the whole run
  /// (diagnostic, like MegaCell's phase walls). Always 0 in
  /// per-event mode, where update application is indistinguishable from
  /// scheduler time.
  double update_wall_seconds() const { return update_wall_seconds_; }

 private:
  /// Future (gap, item) pairs decoded ahead of consumption in the uniform
  /// profile's drain loop (see RefillLookahead).
  static constexpr size_t kLookahead = 512;

  void ScheduleNext();
  void Fire();
  ItemId SampleItem();
  /// Draws the first (gap, item) pair in batch mode — same draws as
  /// ScheduleNext, minus the scheduled event.
  void PrimeBatch();
  /// Refills the decoded lookahead: one block of raw draws in stream order
  /// (gap bits, then item bits, per pair), then a decode pass that turns
  /// the gap bits into *absolute* event times by the same repeated `+= gap`
  /// addition ScheduleAfter performs. Buffer contents are a pure function
  /// of the RNG stream position, so every pair is bit-identical to an
  /// on-demand draw; undrawn pairs simply wait for a later pump.
  void RefillLookahead();
  /// Drain loop for the weighted (CDF-sampled) profile — the original
  /// draw-as-you-go loop, kept separate so the uniform path stays tight.
  void GenerateIntervalUpdatesWeighted(SimTime through, bool inclusive);

  /// The item of the *pending* update. Sampled at schedule time — one event
  /// ahead of its ApplyUpdate — so its state line can be prefetched across
  /// the intervening event dispatches. The RNG stream is unchanged: the
  /// draws per cycle (gap, then item) happen in the same order as sampling
  /// the item inside Fire() did.
  ItemId next_item_ = 0;
  /// Batch mode: absolute time of the pending update. Advanced by repeated
  /// `+= gap` addition, the exact double sequence ScheduleAfter produces in
  /// per-event mode.
  SimTime next_time_ = 0.0;

  Simulator* sim_;
  Database* db_;
  Rng rng_;
  double uniform_rate_ = 0.0;       // used when rates_ is empty
  std::vector<double> rates_;       // per-item rates (weighted profile)
  std::vector<double> rate_cdf_;    // cumulative rates for weighted sampling
  double total_rate_ = 0.0;
  bool active_ = false;
  bool batch_mode_ = false;
  EventId pending_{};
  uint64_t updates_generated_ = 0;
  uint64_t batched_applied_ = 0;
  double update_wall_seconds_ = 0.0;
  /// Staging arrays for one ApplyUpdateBatch chunk (weighted profile only;
  /// preallocated by EnableBatchMode, written through raw pointers).
  std::vector<ItemId> batch_ids_;
  std::vector<SimTime> batch_times_;
  /// Decoded lookahead (uniform profile only; preallocated by
  /// EnableBatchMode). look_raw_ holds the gap draws' raw bits between the
  /// draw pass and the log pass; look_item_/look_time_ hold decoded pairs
  /// with *absolute* event times, so due runs feed ApplyUpdateBatch in
  /// place — no per-update copy into staging. Entries [look_pos_,
  /// look_len_) are drawn but unapplied; the head is the pending update,
  /// mirrored in next_item_/next_time_.
  std::vector<uint64_t> look_raw_;
  std::vector<double> look_time_;
  std::vector<ItemId> look_item_;
  size_t look_pos_ = 0;
  size_t look_len_ = 0;
};

/// Builds a per-item rate vector whose ranks follow Zipf(theta) and whose
/// total equals `n * mu_mean` (so uniform-rate formulas stay comparable).
/// Rank 0 (the hottest updater) is item 0.
std::vector<double> ZipfUpdateRates(uint64_t n, double mu_mean, double theta);

}  // namespace mobicache

#endif  // MOBICACHE_DB_UPDATE_GENERATOR_H_
