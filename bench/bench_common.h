// Shared driver for the figure-reproduction benches: argument parsing and
// the run-sweep-and-print-tables pipeline.

#ifndef MOBICACHE_BENCH_BENCH_COMMON_H_
#define MOBICACHE_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "analysis/scenarios.h"
#include "core/strategy.h"
#include "exp/sweep.h"

namespace mobicache {

/// Parses --points=N --measure=N --warmup=N --units=N --hotspot=N --seed=N
/// --threads=N --shards=N --no-sim --csv=PATH --json[=PATH] over the given
/// defaults through util/flags. Bad input (non-numeric, negative or
/// overflowing values, an empty value, an unknown or repeated flag,
/// --shards=0) prints a one-line Status error plus the usage page and exits
/// with status 2; --help prints the usage page and exits 0. `csv_path` (if
/// any) is returned through the optional out parameter; `json_path`
/// likewise — a bare `--json` yields "auto", which RunFigureBench resolves
/// to BENCH_<benchname>.json next to the working directory.
SweepOptions ParseSweepArgs(int argc, char** argv, SweepOptions defaults,
                            std::string* csv_path = nullptr,
                            std::string* json_path = nullptr);

/// Runs one paper figure: analytic curves plus (unless --no-sim) the
/// matching simulated series, printed as aligned tables. With --json, also
/// emits a machine-readable BenchRecord (see bench_json.h) capturing wall
/// time, events/sec, cells/sec, quiet-interval accounting, the sweep's heap
/// allocation count, and the configuration. Returns a process exit code.
int RunFigureBench(PaperScenario scenario,
                   const std::vector<StrategyKind>& strategies, int argc,
                   char** argv, SweepOptions defaults);

/// Global operator-new calls this process has made so far. bench_common.cc
/// installs a counting allocator (one relaxed atomic increment per call —
/// noise on build paths, invisible on the allocation-free hot paths);
/// RunFigureBench records the delta across the sweep so BENCH records track
/// allocation churn alongside throughput.
uint64_t BenchHeapAllocations();

}  // namespace mobicache

#endif  // MOBICACHE_BENCH_BENCH_COMMON_H_
