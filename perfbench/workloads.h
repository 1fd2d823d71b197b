// The benchmark's four workloads and one repetition of each. Every workload
// runs through the library's public engine API only — MegaCell Build()/Run()
// for the single-cell workloads, RunScenarioSweep for the figure sweep — so
// the benchmark keeps working when the cell engines are folded together.
//
// A repetition returns the end-to-end timings, the per-cell fingerprints
// the correctness check compares, and the run-lifetime wall accounts and
// counters the traced run turns into per-layer metrics.

#ifndef MOBICACHE_PERFBENCH_WORKLOADS_H_
#define MOBICACHE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/megacell.h"
#include "exp/sweep.h"

namespace mobicache::perfbench {

struct Workload {
  const char* name = "";
  /// true: RunScenarioSweep(kScenario1, {TS, AT, SIG, nocache}); false: one
  /// MegaCell (see CellConfigFor).
  bool sweep = false;
  StrategyKind strategy = StrategyKind::kTs;
  uint64_t units = 0;
  double s = 0.0;
  uint64_t n = 0;
  double mu = 0.0;
  uint64_t hotspot = 8;
  uint32_t shards = 1;  ///< MegaCell shards, or the sweep's thread count.
  uint64_t warmup = 0;
  uint64_t measure = 0;
};

/// All workloads, in the order `--workload=all` runs them.
const std::vector<Workload>& AllWorkloads();
/// Null when no workload has that name.
const Workload* FindWorkload(const std::string& name);

/// The MegaCell configuration of a single-cell workload for `seed`.
MegaCellConfig CellConfigFor(const Workload& w, uint64_t seed);
/// The sweep options of the sweep workload for `seed`.
SweepOptions SweepOptionsFor(const Workload& w, uint64_t seed);
/// The strategies the sweep workload evaluates.
const std::vector<StrategyKind>& SweepKinds();
/// The cell configurations RunScenarioSweep derives for the sweep workload,
/// in its grid order (strategy-major, then point), feasible cells only.
std::vector<CellConfig> SweepCellConfigs(const Workload& w, uint64_t seed);

/// FNV-1a over the integer CellResult counters and the ChannelStats counts:
/// the simulated outcome of one cell, independent of thread and shard count.
uint64_t CellFingerprint(const CellResult& r);

/// What one engine call did, aggregated over the workload's cells.
struct Accounts {
  double server_s = 0.0;
  double shard_phase_s = 0.0;
  double replay_s = 0.0;
  uint64_t replay_records = 0;
  double update_s = 0.0;
  /// Per-lane shard walls (single cell) or per-cell shard-phase walls
  /// (sweep); their sum is the host time the unit population cost.
  std::vector<double> lane_walls;
  /// Sum of per-cell walls (sweep; equals run_s for a single cell).
  double cell_wall_sum = 0.0;
  uint64_t journal_bytes_peak = 0;
  uint64_t skipped_dispatches = 0;
  uint64_t sim_events = 0;
  uint64_t updates_applied = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t reports_broadcast = 0;
  uint64_t reports_heard = 0;
  uint64_t quiet_report_intervals = 0;
  uint64_t quiet_skipped_intervals = 0;
  uint64_t items_invalidated = 0;
  double report_bits_sum = 0.0;   ///< Σ avg_report_bits over cells.
  double sleep_fraction_sum = 0.0;
  uint64_t channel_report_bits = 0;
  uint64_t channel_uplink_queries = 0;
  double channel_busy_s = 0.0;
  /// Σ units × (warm-up + measured intervals) over the cells.
  double unit_intervals = 0.0;
  /// Σ units × (warm-up + measured intervals) × (1 - sleep fraction).
  double awake_unit_intervals = 0.0;
  /// Σ (warm-up + measured) / measured over cells, to scale measured-phase
  /// counters up to the whole run the wall accounts cover.
  double run_over_measured = 1.0;
};

struct Repetition {
  uint64_t cells = 0;         ///< Cells attempted.
  uint64_t failed_cells = 0;  ///< Non-OK Status or failed invariant.
  std::vector<std::string> failures;
  /// One per attempted cell, in grid order; 0 for a failed cell.
  std::vector<uint64_t> fingerprints;
  double setup_s = 0.0;
  double run_s = 0.0;
  double model_err_h = 0.0;
  /// Heap allocations made during the engine call (Run or the sweep).
  uint64_t heap_allocs = 0;
  Accounts acc;
};

/// Runs one repetition: Build() then Run() for a single cell (setup_s is the
/// Build wall), or the sweep call (its set-up happens inside; setup_s is the
/// wall of building each sweep cell on its own). `allocs` reads the
/// process's heap allocation counter.
Repetition RunRepetition(const Workload& w, uint64_t seed,
                         uint64_t (*allocs)());

/// Wall of one set-up alone: Build() of the workload's cell, or of every
/// sweep cell in turn.
double MeasureSetup(const Workload& w, uint64_t seed);

/// Traced run of the sweep workload only: runs each sweep cell as its own
/// MegaCell (same configurations, one at a time) to read the server
/// accounts SweepResult does not carry. Fills `skipped_dispatches` and
/// returns the cells' fingerprints in grid order (0 for a failed cell).
std::vector<uint64_t> RerunSweepCells(const Workload& w, uint64_t seed,
                                      uint64_t* skipped_dispatches);

}  // namespace mobicache::perfbench

#endif  // MOBICACHE_PERFBENCH_WORKLOADS_H_
