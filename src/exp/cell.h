// Configuration and result of one simulated cell: one stationary server,
// its database and Poisson update stream, the shared wireless channel, and
// a population of mobile units running one invalidation strategy. The cell
// engine (exp/megacell.h) is the measurement rig behind every simulated
// series in bench/ — it reports the measured hit ratio and report size and
// pushes them through the paper's Eq. 9/10 to get throughput and
// effectiveness directly comparable with the analytic model.

#ifndef MOBICACHE_EXP_CELL_H_
#define MOBICACHE_EXP_CELL_H_

#include <cstdint>
#include <vector>

#include "analysis/model.h"
#include "core/adaptive.h"
#include "core/strategy.h"
#include "db/database.h"
#include "net/channel.h"
#include "net/delivery.h"

namespace mobicache {

struct CellConfig {
  /// Workload parameters; reuses the analytic model's parameter block so an
  /// analytic curve and a simulation are always configured identically.
  ModelParams model;
  StrategyKind strategy = StrategyKind::kTs;

  uint64_t num_units = 20;
  uint64_t hotspot_size = 20;
  /// true: all units query the same hot spot (the paper's homogeneous-cell
  /// picture); false: each unit gets an independent random hot spot.
  bool shared_hotspot = true;
  /// Explicit per-unit hot spots (e.g. grid neighbourhoods). When non-empty
  /// it must have num_units entries of valid item ids and overrides
  /// hotspot_size / shared_hotspot.
  std::vector<std::vector<ItemId>> custom_hotspots;
  size_t cache_capacity = 0;  ///< 0 = unbounded.
  uint64_t seed = 1;

  /// SIG: operating threshold K (detection requires K < ~1.58; see sig/).
  double sig_k_threshold = 1.25;
  /// SIG extension: per-item syndrome threshold (see SignatureParams).
  bool sig_per_item_threshold = false;
  double sig_gamma = 0.8;

  /// Adaptive TS options (strategy == kAdaptiveTs).
  AdaptiveTsOptions adaptive;

  /// Grouped-report option (strategy == kGroupedAt): number of blocks G.
  uint32_t num_groups = 32;

  /// Hybrid-SIG option (strategy == kHybridSig): the individually-broadcast
  /// hot set (sorted). Empty = the shared contiguous hot spot [0,
  /// hotspot_size).
  std::vector<ItemId> hybrid_hot_set;

  /// Quasi-copy options (strategy == kQuasiAt).
  uint64_t quasi_alpha_intervals = 4;   ///< Delay condition: alpha = j*L.
  bool quasi_arithmetic = false;        ///< Use the arithmetic condition.
  double quasi_epsilon = 1.0;           ///< Arithmetic tolerance.
  double numeric_step_scale = 1.0;      ///< Random-walk step bound.

  /// Report delivery substrate (§9).
  DeliveryModelKind delivery = DeliveryModelKind::kIdealPeriodic;
  double mean_jitter_seconds = 0.0;

  /// Sleep-model extension: use renewal on/off periods instead of the
  /// paper's per-interval Bernoulli(s).
  bool renewal_sleep = false;
  double mean_awake_seconds = 60.0;
  double mean_sleep_seconds = 60.0;

  /// Query-workload extension: Zipf exponent for popularity within each
  /// unit's hot spot (0 = the paper's uniform model).
  double query_zipf_theta = 0.0;

  /// Update-workload extension: explicit per-item update rates (size n).
  /// When non-empty this overrides the uniform rate model.mu; the weighted
  /// and adaptive benches use it for hot/cold item mixes.
  std::vector<double> update_rates;

  /// Quiet-interval elision (see ServerConfig::quiet_elision). On by
  /// default; the equivalence tests run both settings and require
  /// byte-identical results.
  bool quiet_elision = true;
};

struct CellResult {
  // Measured quantities.
  double hit_ratio = 0.0;
  double avg_report_bits = 0.0;
  uint64_t queries_answered = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double mean_answer_latency = 0.0;
  uint64_t reports_broadcast = 0;
  uint64_t reports_heard = 0;
  uint64_t reports_missed = 0;
  /// Measured intervals whose report delivery found every unit asleep
  /// (pure downlink waste; see ServerStats::quiet_report_intervals).
  uint64_t quiet_report_intervals = 0;
  /// The subset of quiet intervals the server skipped building and
  /// delivering entirely (see ServerStats::quiet_skipped_intervals).
  uint64_t quiet_skipped_intervals = 0;
  double measured_sleep_fraction = 0.0;
  uint64_t items_invalidated = 0;
  double listen_seconds_total = 0.0;
  /// Simulated events over the whole run (warmup included); the bench
  /// harness's events/sec denominator. Counts every event the server and
  /// the units dispatched, each once whatever the shard count (a delivery
  /// or update-trace event replayed into every shard counts once), plus
  /// every update applied through the batched drain path and every
  /// dispatch the quiet skip replayed inline — each of those was one
  /// dispatched event under the per-event engine, so the denominator
  /// measures the same simulated work in every mode.
  uint64_t sim_events = 0;
  /// Updates applied to the database over the whole run (either mode).
  uint64_t updates_applied = 0;
  ChannelStats channel;

  // Derived through Eq. 9/10 from the measured hit ratio and report size.
  double throughput = 0.0;
  double effectiveness = 0.0;
  bool feasible = true;
};

}  // namespace mobicache

#endif  // MOBICACHE_EXP_CELL_H_
