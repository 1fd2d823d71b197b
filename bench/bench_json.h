// Machine-readable bench output: every figure bench can emit a
// BENCH_<name>.json record (wall time, events/sec, cells/sec, and the
// configuration that produced them) so perf changes are tracked as data
// instead of anecdotes. The format is one flat JSON object per file;
// anything that parses JSON can diff two records.

#ifndef MOBICACHE_BENCH_BENCH_JSON_H_
#define MOBICACHE_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "util/status.h"

namespace mobicache {

/// One bench run's record.
struct BenchRecord {
  std::string name;          ///< Bench name, e.g. "fig6_scenario4".
  std::string scenario;      ///< Scenario label (empty for micro benches).
  double wall_seconds = 0.0;

  // Work accomplished.
  uint64_t sim_events = 0;   ///< Discrete events dispatched across all cells.
  uint64_t cells = 0;        ///< Simulation cells run.
  double events_per_sec = 0.0;
  double cells_per_sec = 0.0;

  // Quiet-server accounting, summed across the simulated cells: measured
  // intervals whose delivery found every unit asleep, and the subset the
  // server elided outright (always <= quiet_report_intervals).
  uint64_t quiet_report_intervals = 0;
  uint64_t quiet_skipped_intervals = 0;
  /// Global operator-new calls made across the sweep (see
  /// BenchHeapAllocations in bench_common.h). Steady-state broadcast work
  /// adds nothing here, so the count tracks build/teardown churn and
  /// catches allocation regressions on the hot paths.
  uint64_t heap_allocations = 0;

  // Configuration that produced the numbers.
  int threads = 0;           ///< Effective worker count.
  unsigned hardware_concurrency = 0;
  int points = 0;
  uint64_t num_units = 0;
  uint64_t warmup_intervals = 0;
  uint64_t measure_intervals = 0;
  uint64_t seed = 0;
  bool simulate = true;
  /// Intra-cell shards per simulated cell (SweepOptions::shards).
  int shards = 1;
  /// Batched-apply kernel the SIMD dispatcher resolved for this process
  /// ("scalar", "sse2", "avx2"); CI asserts it under MOBICACHE_SIMD.
  std::string simd_kernel;

  // Per-phase wall shares, summed across the simulated cells (see
  // exp/megacell.h for the phase definitions): the serial server phases,
  // the parallel shard phases' critical path, and the barrier
  // replay-merges. server + shard + replay approximates wall_seconds minus
  // build time when cells run serially. replay_records counts the log
  // records the barriers merged.
  double server_seconds = 0.0;
  double shard_seconds = 0.0;
  double replay_seconds = 0.0;
  uint64_t replay_records = 0;
  /// Wall time draining the batched update stream, summed across cells — a
  /// sub-account of server_seconds (pumps run inside the server phase), so
  /// 0 <= update_seconds <= server_seconds. updates_applied counts updates
  /// applied to the cells' databases (either delivery mode).
  double update_seconds = 0.0;
  uint64_t updates_applied = 0;
  /// Sum of the per-cell journal byte high-water marks — an upper bound on
  /// the sweep's aggregate journal footprint had every cell peaked at once.
  /// Per-cell peaks and retention classes live in the breakdown entries.
  uint64_t journal_bytes_peak = 0;

  /// Optional wall-time breakdown: one labelled timing per simulated cell
  /// (sweep benches label by "<strategy>@x=<point>") or per shard/phase
  /// (the megacell bench). Deterministic order; empty when not recorded.
  /// Sweep-bench entries carry the cell's per-phase split alongside its
  /// total (phase fields are zero for breakdowns that predate them).
  struct Breakdown {
    std::string label;
    double seconds = 0.0;
    double server_seconds = 0.0;
    double shard_seconds = 0.0;
    double replay_seconds = 0.0;
    uint64_t replay_records = 0;
    double update_seconds = 0.0;
    uint64_t updates_applied = 0;
    /// Journal retention class the cell's strategy armed ("none", "dirty",
    /// "full") and the journal's byte high-water mark over the cell's run.
    std::string retention_class = "full";
    uint64_t journal_bytes_peak = 0;
  };
  std::vector<Breakdown> breakdown;
};

/// Fills the work/config fields from a finished sweep + its options and
/// timing. `threads_used` is the effective count (after resolving 0 to the
/// hardware default).
BenchRecord MakeBenchRecord(const std::string& name,
                            const std::string& scenario,
                            const SweepResult& result,
                            const SweepOptions& options, int threads_used,
                            double wall_seconds);

/// The record as a JSON object (pretty-printed, stable key order).
std::string BenchRecordToJson(const BenchRecord& record);

/// Writes BenchRecordToJson(record) to `path`.
Status WriteBenchJson(const BenchRecord& record, const std::string& path);

}  // namespace mobicache

#endif  // MOBICACHE_BENCH_BENCH_JSON_H_
