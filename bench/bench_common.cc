#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <fstream>
#include <new>
#include <string>

#include "bench_json.h"
#include "util/flags.h"
#include "util/simd.h"
#include "util/thread_pool.h"

// Counting global allocator: every bench linking bench_common reports its
// heap allocation count in the BENCH record, so an allocation regression on
// a hot path shows up as a step in the per-commit artifact trail, not just
// as a throughput wobble.
namespace {
std::atomic<uint64_t> g_new_calls{0};
}  // namespace

// noinline keeps the malloc/free bodies opaque at new/delete expression
// sites, which would otherwise trip GCC's -Wmismatched-new-delete.
#if defined(__GNUC__)
#define MOBICACHE_BENCH_NOINLINE __attribute__((noinline))
#else
#define MOBICACHE_BENCH_NOINLINE
#endif

MOBICACHE_BENCH_NOINLINE void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
MOBICACHE_BENCH_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
MOBICACHE_BENCH_NOINLINE void operator delete(void* p) noexcept {
  std::free(p);
}
MOBICACHE_BENCH_NOINLINE void operator delete[](void* p) noexcept {
  std::free(p);
}
MOBICACHE_BENCH_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
MOBICACHE_BENCH_NOINLINE void operator delete[](void* p,
                                                std::size_t) noexcept {
  std::free(p);
}

namespace mobicache {

uint64_t BenchHeapAllocations() {
  return g_new_calls.load(std::memory_order_relaxed);
}

namespace {

/// Narrows a parsed flag to int, rejecting values an int cannot hold.
Status ToIntFlag(const char* name, uint64_t value, int* out) {
  if (value > static_cast<uint64_t>(INT_MAX)) {
    return Status::InvalidArgument(std::string("--") + name +
                                   " is too large (max " +
                                   std::to_string(INT_MAX) + ")");
  }
  *out = static_cast<int>(value);
  return Status::OK();
}

std::string BenchNameFromArgv0(const char* argv0) {
  std::string name(argv0);
  const size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name.empty() ? std::string("bench") : name;
}

}  // namespace

void ParseNoFlags(int argc, char** argv, const std::string& description) {
  FlagParser flags(BenchNameFromArgv0(argv[0]) + ": " + description);
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n\n" << flags.Usage();
    std::exit(2);
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    std::exit(0);
  }
}

SweepOptions ParseSweepArgs(int argc, char** argv, SweepOptions defaults,
                            std::string* csv_path, std::string* json_path) {
  SweepOptions options = defaults;
  uint64_t points = static_cast<uint64_t>(defaults.points);
  uint64_t threads = static_cast<uint64_t>(defaults.threads);
  uint64_t shards = static_cast<uint64_t>(defaults.shards);
  bool no_sim = !defaults.simulate;
  std::string csv;
  std::string json;
  FlagParser flags(BenchNameFromArgv0(argv[0]) +
                   ": one paper figure, analytic curves plus simulated "
                   "series.");
  flags.AddUint("points", points, "sweep points per curve", &points);
  flags.AddUint("measure", defaults.measure_intervals,
                "measured intervals per cell", &options.measure_intervals);
  flags.AddUint("warmup", defaults.warmup_intervals,
                "warm-up intervals per cell", &options.warmup_intervals);
  flags.AddUint("units", defaults.num_units, "mobile units per cell",
                &options.num_units);
  flags.AddUint("hotspot", defaults.hotspot_size, "hot-spot size per unit",
                &options.hotspot_size);
  flags.AddUint("seed", defaults.seed, "sweep seed", &options.seed);
  flags.AddUint("threads", threads, "worker threads (0: one per core)",
                &threads);
  flags.AddUint("shards", shards, "shards per cell (>= 1)", &shards);
  flags.AddBool("no-sim", no_sim, "analytic curves only", &no_sim);
  flags.AddString("csv", "", "write the sweep CSV to this path", &csv);
  flags.AddOptionalString("json", "", "auto",
                          "write the bench record to this path (bare "
                          "--json: BENCH_<bench>.json)",
                          &json);
  Status st = flags.Parse(argc, argv);
  if (st.ok()) st = ToIntFlag("points", points, &options.points);
  if (st.ok()) st = ToIntFlag("threads", threads, &options.threads);
  if (st.ok()) st = ToIntFlag("shards", shards, &options.shards);
  if (st.ok() && options.shards < 1) {
    st = Status::InvalidArgument("--shards must be >= 1");
  }
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n\n" << flags.Usage();
    std::exit(2);
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    std::exit(0);
  }
  options.simulate = !no_sim;
  if (csv_path != nullptr && !csv.empty()) *csv_path = csv;
  if (json_path != nullptr && !json.empty()) *json_path = json;
  return options;
}

int RunFigureBench(PaperScenario scenario,
                   const std::vector<StrategyKind>& strategies, int argc,
                   char** argv, SweepOptions defaults) {
  std::string csv_path;
  std::string json_path;
  const SweepOptions options =
      ParseSweepArgs(argc, argv, defaults, &csv_path, &json_path);
  const ModelParams p = ScenarioParams(scenario);
  const ScenarioSweep spec = ScenarioSweepSpec(scenario);
  const int threads_used = options.threads == 0
                               ? static_cast<int>(ThreadPool::DefaultThreadCount())
                               : options.threads;

  std::cout << ScenarioLabel(scenario) << "\n";
  std::printf(
      "lambda=%g mu=%g L=%g n=%llu W=%g bT=%llu k=%llu f=%u g=%u; sweeping "
      "%s in [%g, %g]\n",
      p.lambda, p.mu, p.L, static_cast<unsigned long long>(p.n), p.W,
      static_cast<unsigned long long>(p.bT),
      static_cast<unsigned long long>(p.k), p.f, p.g,
      spec.sweeps_sleep ? "s" : "mu", spec.lo, spec.hi);
  if (options.simulate) {
    std::printf(
        "simulation: %llu units, hotspot %llu, %llu+%llu intervals, seed "
        "%llu, %d thread%s\n\n",
        static_cast<unsigned long long>(options.num_units),
        static_cast<unsigned long long>(options.hotspot_size),
        static_cast<unsigned long long>(options.warmup_intervals),
        static_cast<unsigned long long>(options.measure_intervals),
        static_cast<unsigned long long>(options.seed), threads_used,
        threads_used == 1 ? "" : "s");
  } else {
    std::printf("analytic model only (--no-sim)\n\n");
  }

  const auto start = std::chrono::steady_clock::now();
  const uint64_t allocs_before = BenchHeapAllocations();
  const StatusOr<SweepResult> result =
      RunScenarioSweep(scenario, strategies, options);
  const uint64_t sweep_allocations = BenchHeapAllocations() - allocs_before;
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!result.ok()) {
    std::cerr << "sweep failed: " << result.status().ToString() << "\n";
    return 1;
  }
  PrintSweepTables(*result, std::cout);
  std::printf("wall %.3fs  cells %llu  events %llu  (%.3g events/s)\n",
              wall_seconds,
              static_cast<unsigned long long>(result->simulated_cells),
              static_cast<unsigned long long>(result->sim_events),
              wall_seconds > 0.0
                  ? static_cast<double>(result->sim_events) / wall_seconds
                  : 0.0);
  double update_seconds = 0.0;
  uint64_t updates_applied = 0;
  uint64_t journal_peak = 0;
  // Cells per JournalRetention class. The enum is ordered by what each
  // class can answer, so kFullWindow is its last value.
  constexpr size_t kRetentionClasses =
      static_cast<size_t>(JournalRetention::kFullWindow) + 1;
  uint64_t retention_cells[kRetentionClasses] = {};
  for (const SweepResult::CellTiming& t : result->cell_timings) {
    update_seconds += t.update_seconds;
    updates_applied += t.updates_applied;
    journal_peak += t.journal_bytes_peak;
    for (size_t c = 0; c < kRetentionClasses; ++c) {
      const char* name = JournalRetentionName(static_cast<JournalRetention>(c));
      if (std::strcmp(t.retention_class, name) == 0) ++retention_cells[c];
    }
  }
  if (updates_applied > 0) {
    std::printf("updates %llu  (%.3fs batched drain, %.1f%% of wall)  "
                "kernel %s\n",
                static_cast<unsigned long long>(updates_applied),
                update_seconds,
                wall_seconds > 0.0 ? 100.0 * update_seconds / wall_seconds
                                   : 0.0,
                simd::ActiveKernelName());
  }
  if (!result->cell_timings.empty()) {
    std::printf("journal peak %.2f MB summed over cells  (retention:",
                static_cast<double>(journal_peak) / (1024.0 * 1024.0));
    for (size_t c = kRetentionClasses; c-- > 0;) {
      std::printf("%s %llu %s", c + 1 == kRetentionClasses ? "" : ",",
                  static_cast<unsigned long long>(retention_cells[c]),
                  JournalRetentionName(static_cast<JournalRetention>(c)));
    }
    std::printf(")\n");
  }
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "cannot open " << csv_path << "\n";
      return 1;
    }
    WriteSweepCsv(*result, csv);
    std::cout << "CSV written to " << csv_path << "\n";
  }
  if (!json_path.empty()) {
    const std::string bench_name = BenchNameFromArgv0(argv[0]);
    const std::string path =
        json_path == "auto" ? "BENCH_" + bench_name + ".json" : json_path;
    BenchRecord record =
        MakeBenchRecord(bench_name, std::string(ScenarioLabel(scenario)),
                        *result, options, threads_used, wall_seconds);
    record.heap_allocations = sweep_allocations;
    const Status st = WriteBenchJson(record, path);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::cout << "bench record written to " << path << "\n";
  }
  return 0;
}

}  // namespace mobicache
