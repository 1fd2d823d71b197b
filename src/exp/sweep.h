// Scenario sweep driver: evaluates a set of strategies across a paper
// scenario's sweep range (sleep probability s, or update rate mu), producing
// the analytic series (the paper's curves) and, optionally, the matching
// discrete-event-simulated series at the same parameters.

#ifndef MOBICACHE_EXP_SWEEP_H_
#define MOBICACHE_EXP_SWEEP_H_

#include <optional>
#include <ostream>
#include <vector>

#include "analysis/model.h"
#include "analysis/scenarios.h"
#include "core/strategy.h"
#include "exp/cell.h"
#include "util/status.h"

namespace mobicache {

struct SweepOptions {
  int points = 11;
  uint64_t warmup_intervals = 50;
  uint64_t measure_intervals = 400;
  uint64_t num_units = 20;
  uint64_t hotspot_size = 20;
  uint64_t seed = 42;
  bool simulate = true;  ///< false: analytic-only (fast).
  /// Worker threads for the simulated cells. 0 = one per hardware thread;
  /// 1 = run in the calling thread. Results are byte-identical at any
  /// setting: every (strategy, point) cell derives its seed from its grid
  /// position and writes its own result slot, so thread count affects only
  /// wall-clock time.
  int threads = 0;
  /// Intra-cell shards per simulated cell (see exp/megacell.h): each cell
  /// runs with that many shard threads. Byte-identical results at any
  /// setting. When
  /// shards > 1 the cross-cell pool is narrowed to threads / shards workers
  /// so sweep jobs and intra-cell shards share the machine without
  /// oversubscription.
  int shards = 1;
  /// Strategies to evaluate analytically but never simulate (used where a
  /// full-scale simulation is impractical or the protocol cannot operate,
  /// e.g. SIG under Scenario 4's 10^5 updates/s).
  std::vector<StrategyKind> analytic_only;
};

struct StrategySeries {
  StrategyKind kind;
  std::vector<StrategyEval> analytic;            ///< One per sweep point.
  std::vector<std::optional<CellResult>> measured;  ///< Empty if !simulate.
};

struct SweepResult {
  PaperScenario scenario;
  bool sweeps_sleep = true;
  std::vector<double> xs;
  std::vector<StrategySeries> series;
  /// Aggregate simulation effort, for the bench harness: how many cells were
  /// actually simulated and how many discrete events they dispatched.
  uint64_t simulated_cells = 0;
  uint64_t sim_events = 0;
  /// Summed over the simulated cells: measured intervals whose delivery
  /// found every unit asleep, and the subset the server's quiet-interval
  /// elision skipped entirely (always <= quiet_report_intervals).
  uint64_t quiet_report_intervals = 0;
  uint64_t quiet_skipped_intervals = 0;
  /// Wall time of each simulated cell, in deterministic grid order
  /// (strategy-major, then sweep point) regardless of thread interleaving.
  /// Feeds the bench JSON's per-cell breakdown.
  struct CellTiming {
    StrategyKind kind;
    double x = 0.0;  ///< The sweep-axis value of the cell's point.
    double wall_seconds = 0.0;
    // Per-phase walls of the cell's run (see exp/megacell.h): serial
    // server phases, the parallel shard phases' critical path, and the
    // barrier replay-merges. Their sum approximates wall_seconds minus
    // Build(); replay_records counts the log records merged at the
    // barriers.
    double server_seconds = 0.0;
    double shard_seconds = 0.0;
    double replay_seconds = 0.0;
    uint64_t replay_records = 0;
    /// Wall time draining the batched update stream — a sub-account of
    /// server_seconds (pumps run inside the server phase); 0 when the cell
    /// ran its updates per-event.
    double update_seconds = 0.0;
    /// Updates applied to the cell's database over the run (either mode).
    uint64_t updates_applied = 0;
    /// Journal retention diagnostics of the cell's database: the class the
    /// strategy armed ("none", "digest", "full" — see JournalRetention) and
    /// the journal's byte high-water mark over the run.
    const char* retention_class = "full";
    uint64_t journal_bytes_peak = 0;
  };
  std::vector<CellTiming> cell_timings;
};

/// Runs the sweep. Strategies without an analytic formula (adaptive, quasi,
/// stateful) get analytic entries computed from the closest base model (TS
/// for adaptive, AT for quasi, ideal for stateful) — benches that need exact
/// analytics should stick to kTs/kAt/kSig/kNoCache.
StatusOr<SweepResult> RunScenarioSweep(PaperScenario scenario,
                                       const std::vector<StrategyKind>& kinds,
                                       const SweepOptions& options);

/// Same sweep with a fixed item-identifier width (see
/// ModelParams::id_bits_override); used to reproduce the paper's
/// natural-log reading of "log(n)" in the report-size formulas.
StatusOr<SweepResult> RunScenarioSweepWithIdBits(
    PaperScenario scenario, const std::vector<StrategyKind>& kinds,
    const SweepOptions& options, uint64_t id_bits);

/// Analytic evaluation dispatch used by the sweep (exposed for benches).
StrategyEval EvalStrategyModel(StrategyKind kind, const ModelParams& params);

/// Prints the effectiveness table (one row per sweep point; model and, when
/// present, simulated columns per strategy), then the hit-ratio table.
void PrintSweepTables(const SweepResult& result, std::ostream& os);

/// Emits the full sweep (effectiveness, hit ratio, report bits; model and
/// simulated) as one machine-readable CSV for plotting.
void WriteSweepCsv(const SweepResult& result, std::ostream& os);

}  // namespace mobicache

#endif  // MOBICACHE_EXP_SWEEP_H_
