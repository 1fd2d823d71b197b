// Poisson update workload driving the server database. The paper's model
// updates every item independently at rate mu; we simulate the equivalent
// superposed process (one exponential clock at rate n*mu, uniform item
// choice), which also generalizes to non-uniform per-item weights (Zipf)
// for the weighted-signature / adaptive-window extensions.
//
// The stream is drawn ahead into a lookahead of (absolute time, item) pairs
// and applied in batches: GenerateIntervalUpdates drains every pair due
// before a pump point in one tight loop through Database::ApplyUpdateBatch,
// with no scheduler traffic. The pump points — the server's broadcast head,
// its delivery-consumption instant, the cell engine's window barrier, and
// Stop() at the end of a run — are the places a reader can first observe an
// update, so every reader (report builders, window queries, the update
// observer behind the stateful/async trace) sees the database exactly as an
// update-at-its-instant stream would leave it.
//
// Draw order: one (gap, item) pair per update, gap first. Times accumulate
// by repeated `+= gap` addition from the start time, so each is a pure
// function of the seed and the update's index, whatever the pump points.

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

  /// Does nothing: the stream always drains in batches. perfbench's server
  /// probe is its last caller; it goes with the next benchmark change.
  void EnableBatchMode() {}

  /// Begins generating updates from the current simulation time: draws the
  /// first (gap, item) pair. Returns FailedPrecondition if already started.
  /// A zero total rate is legal and generates nothing.
  Status Start();

  /// Applies every update due at or before the current simulation time,
  /// then stops generating. Idempotent.
  void Stop();

  /// Applies every pending update with time < `through` (<= `through` when
  /// `inclusive`) via Database::ApplyUpdateBatch. No-op before Start(),
  /// after Stop(), or when nothing is due — callers pump unconditionally
  /// from every observation point.
  void GenerateIntervalUpdates(SimTime through, bool inclusive);

  /// Per-item rate for `id`.
  double RateOf(ItemId id) const;

  /// Sum of all per-item rates.
  double total_rate() const { return total_rate_; }

  /// Updates applied so far. Engines add this to the scheduler's dispatched
  /// events for the events/sec denominator: each update is one simulated
  /// event that never passes through the scheduler.
  uint64_t updates_generated() const { return updates_generated_; }

  /// Wall time spent inside GenerateIntervalUpdates over the whole run
  /// (diagnostic, like MegaCell's phase walls).
  double update_wall_seconds() const { return update_wall_seconds_; }

 private:
  /// Future (gap, item) pairs decoded ahead of consumption (see
  /// RefillLookahead).
  static constexpr size_t kLookahead = 512;

  /// One item draw of the pair: uniform over the items, or by CDF for the
  /// weighted profile.
  ItemId SampleItem();
  /// Refills the decoded lookahead: one block of raw draws in stream order
  /// (gap bits, then the item draw, per pair), then a decode pass that turns
  /// the gap bits into *absolute* event times by repeated `+= gap` addition.
  /// Buffer contents are a pure function of the RNG stream position, so
  /// every pair is bit-identical to an on-demand draw; undrawn pairs simply
  /// wait for a later pump.
  void RefillLookahead();

  Simulator* sim_;
  Database* db_;
  Rng rng_;
  double uniform_rate_ = 0.0;       // used when rates_ is empty
  std::vector<double> rates_;       // per-item rates (weighted profile)
  std::vector<double> rate_cdf_;    // cumulative rates for weighted sampling
  double total_rate_ = 0.0;
  bool active_ = false;
  uint64_t updates_generated_ = 0;
  double update_wall_seconds_ = 0.0;
  /// Decoded lookahead. look_raw_ holds the gap draws' raw bits between the
  /// draw pass and the decode pass; look_item_/look_time_ hold decoded
  /// pairs with *absolute* event times, so due runs feed ApplyUpdateBatch
  /// in place. Entries [look_pos_, look_len_) are drawn but unapplied; the
  /// head is the pending update.
  std::vector<uint64_t> look_raw_ = std::vector<uint64_t>(kLookahead);
  std::vector<double> look_time_ = std::vector<double>(kLookahead);
  std::vector<ItemId> look_item_ = std::vector<ItemId>(kLookahead);
  size_t look_pos_ = 0;
  size_t look_len_ = 0;
};

/// Builds a per-item rate vector whose ranks follow Zipf(theta) and whose
/// total equals `n * mu_mean` (so uniform-rate formulas stay comparable).
/// Rank 0 (the hottest updater) is item 0.
std::vector<double> ZipfUpdateRates(uint64_t n, double mu_mean, double theta);

}  // namespace mobicache

#endif  // MOBICACHE_DB_UPDATE_GENERATOR_H_
