// mobicache performance benchmark: runs one named workload for a fixed
// host-time budget and prints its metrics, ending with one JSON line.
//
//   perf_suite --workload=NAME --seed=N --seconds=S --trace=0|1
//              [--fingerprints=perfbench/fingerprints.tsv] [--record]
//
// --trace=0 (timed run) repeats the workload until the budget is spent and
// reports medians of the end-to-end metrics: run_s, unit_intervals_per_s,
// setup_s, peak_rss_mb. --trace=1 (traced run) runs the
// workload once, reads the engine's wall accounts and counters, times the
// layer probes, and reports the per-layer metrics next to a "micro predicts
// macro" table and the accounts' attribution coverage.
//
// Correctness: every cell's fingerprint (integer CellResult counters and
// ChannelStats counts) must match the one recorded for that workload and
// seed in the fingerprints file, and every repetition must reproduce the
// first. A cell fails on a non-OK Status, a violated counter invariant, or a
// fingerprint mismatch. --record prints the fingerprint line for the file.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "probes.h"
#include "util/flags.h"
#include "workloads.h"

// Counting global allocator: util.heap_allocs is the number of operator-new
// calls made during the engine call.
namespace {
std::atomic<uint64_t> g_new_calls{0};
}  // namespace

#if defined(__GNUC__)
#define PERFBENCH_NOINLINE __attribute__((noinline))
#else
#define PERFBENCH_NOINLINE
#endif

PERFBENCH_NOINLINE void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
PERFBENCH_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
PERFBENCH_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
PERFBENCH_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
PERFBENCH_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
PERFBENCH_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mobicache::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t HeapAllocs() { return g_new_calls.load(std::memory_order_relaxed); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Recorded fingerprints: "workload seed fp0 fp1 ..." per line.
using FingerprintTable =
    std::map<std::pair<std::string, uint64_t>, std::vector<uint64_t>>;

Status LoadFingerprints(const std::string& path, FingerprintTable* table) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read fingerprints file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    uint64_t seed = 0;
    if (!(fields >> workload >> seed)) {
      return Status::InvalidArgument("malformed fingerprint line: " + line);
    }
    std::vector<uint64_t>& fps = (*table)[{workload, seed}];
    std::string hex;
    while (fields >> hex) fps.push_back(std::strtoull(hex.c_str(), nullptr, 16));
  }
  return Status::OK();
}

/// Counts cells of `rep` whose fingerprint differs from `expected`
/// (a missing or extra cell counts as a mismatch) and logs each one.
uint64_t CheckFingerprints(const Repetition& rep,
                           const std::vector<uint64_t>& expected,
                           const char* against) {
  uint64_t mismatched = 0;
  for (size_t i = 0; i < rep.fingerprints.size(); ++i) {
    if (rep.fingerprints[i] == 0) continue;  // already failed
    if (i >= expected.size() || rep.fingerprints[i] != expected[i]) {
      ++mismatched;
      std::printf("FAIL cell %zu fingerprint %s != %s %s\n", i,
                  Hex(rep.fingerprints[i]).c_str(), against,
                  i < expected.size() ? Hex(expected[i]).c_str() : "(none)");
    }
  }
  if (expected.size() > rep.fingerprints.size()) {
    mismatched += expected.size() - rep.fingerprints.size();
    std::printf("FAIL %zu recorded cells missing from the run\n",
                expected.size() - rep.fingerprints.size());
  }
  return mismatched;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// Correctness bookkeeping shared by the timed and traced runs.
class Checker {
 public:
  Checker(const FingerprintTable& table, const Workload& w, uint64_t seed)
      : seed_(seed) {
    auto it = table.find({w.name, seed});
    if (it != table.end()) recorded_ = &it->second;
  }

  void Check(const Repetition& rep, Outcome* out) {
    out->attempted += rep.cells;
    uint64_t failed = rep.failed_cells;
    for (const std::string& f : rep.failures) std::printf("FAIL %s\n", f.c_str());
    if (recorded_ != nullptr) {
      failed += CheckFingerprints(rep, *recorded_, "recorded");
    } else if (first_.empty()) {
      std::printf("note: seed %" PRIu64
                  " has no recorded fingerprints; checking repetitions "
                  "against the first\n",
                  seed_);
    } else {
      failed += CheckFingerprints(rep, first_, "first repetition");
    }
    if (first_.empty()) first_ = rep.fingerprints;
    out->failed += std::min(failed, rep.cells);
  }

 private:
  uint64_t seed_;
  const std::vector<uint64_t>* recorded_ = nullptr;
  std::vector<uint64_t> first_;
};

void PrintFingerprints(const Workload& w, uint64_t seed,
                       const std::vector<uint64_t>& fps) {
  for (size_t i = 0; i < fps.size(); ++i) {
    std::printf("fingerprint %s seed=%" PRIu64 " cell=%zu %s\n", w.name, seed,
                i, Hex(fps[i]).c_str());
  }
}

Outcome TimedRun(const Workload& w, uint64_t seed, double budget_s,
                 Checker* checker) {
  Outcome out;
  std::vector<double> setup, run, rate;
  double model_err_h = 0.0;
  double peak_rss_mb = 0.0;
  const auto start = Clock::now();
  double longest = 0.0;
  for (int i = 0;; ++i) {
    const auto t0 = Clock::now();
    const Repetition rep = RunRepetition(w, seed, &HeapAllocs);
    checker->Check(rep, &out);
    if (i == 0) {
      PrintFingerprints(w, seed, rep.fingerprints);
      model_err_h = rep.model_err_h;
      // One repetition's peak: later repetitions only add allocator reuse
      // noise to a process-lifetime high-water mark.
      peak_rss_mb = PeakRssMb();
    }
    setup.push_back(rep.setup_s);
    run.push_back(rep.run_s);
    rate.push_back(rep.acc.unit_intervals / rep.run_s);
    // Cheap set-ups are sampled again, within a tenth of the repetition's
    // wall, so their median is as steady as the run's.
    const double rep_wall = std::chrono::duration<double>(Clock::now() - t0).count();
    double extra = 0.0;
    for (int k = 0; k < 9 && extra + rep.setup_s < 0.1 * rep_wall; ++k) {
      const double s = MeasureSetup(w, seed);
      setup.push_back(s);
      extra += s;
    }
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    longest = std::max(longest, wall);
    std::printf("rep %d: setup_s %.4f run_s %.4f cells %" PRIu64 "\n", i + 1,
                rep.setup_s, rep.run_s, rep.cells);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    // Stop before a repetition would overrun the budget.
    if (elapsed + longest > budget_s) break;
  }
  std::printf("%zu repetitions, %zu set-ups; medians reported\n", run.size(),
              setup.size());
  // An accuracy figure, not a bounded metric: it is fixed by the seed (the
  // fingerprints pin it) and its spread across seeds is sampling noise. The
  // traced run reports it as analysis.model_err_h.
  std::printf("model_err_h %.6f abs (largest |measured h - model h|)\n",
              model_err_h);
  out.metrics = {
      {"run_s", Median(run), "s"},
      {"unit_intervals_per_s", Median(rate), "1/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  return out;
}

struct PredictionRow {
  const char* probe;
  double ns_per_op;
  const char* ops_name;
  double ops;
  const char* account;
  double measured_s;
  /// true: the probe's operation is the account's whole work, so the
  /// prediction should match it; false: it is one part of the account, so
  /// the prediction should stay below it.
  bool whole;
};

void PrintPredictions(const std::vector<PredictionRow>& rows) {
  std::printf("\nmicro predicts macro (probe ns/op x run op count vs the "
              "account it should predict; part = one share of the account)\n");
  std::printf("%-28s %12s %-20s %14s %12s  %-22s %12s %8s\n", "probe", "ns/op",
              "op count", "ops", "predicted_s", "account", "measured_s",
              "ratio");
  for (const PredictionRow& r : rows) {
    if (r.ns_per_op <= 0.0) continue;  // probe not applicable here
    const double predicted = r.ns_per_op * r.ops * 1e-9;
    const double ratio = r.measured_s > 0.0 ? predicted / r.measured_s : 0.0;
    const char* finding = "";
    if (r.whole && (ratio < 0.5 || ratio > 2.0)) {
      finding = "  finding: gap > 2x";
    } else if (!r.whole && ratio > 1.0) {
      finding = "  finding: part exceeds account";
    }
    std::printf("%-28s %12.1f %-20s %14.0f %12.6f  %-22s %12.6f %8.3f%s%s\n",
                r.probe, r.ns_per_op, r.ops_name, r.ops, predicted, r.account,
                r.measured_s, ratio, r.whole ? "" : " part", finding);
  }
}

Outcome TracedRun(const Workload& w, uint64_t seed, Checker* checker) {
  Outcome out;
  const Repetition rep = RunRepetition(w, seed, &HeapAllocs);
  checker->Check(rep, &out);
  PrintFingerprints(w, seed, rep.fingerprints);
  const Accounts& a = rep.acc;

  uint64_t skipped_dispatches = a.skipped_dispatches;
  CellConfig probe_config;
  uint32_t merge_sources = 1;
  double pool_threads = 1.0;
  if (w.sweep) {
    // SweepResult carries no server accounts beyond the phase walls; rerun
    // the sweep's cells one by one as MegaCells to read them, and require
    // the same fingerprints the sweep produced.
    const std::vector<uint64_t> rerun =
        RerunSweepCells(w, seed, &skipped_dispatches);
    Repetition as_rep;
    as_rep.cells = rerun.size();
    as_rep.fingerprints = rerun;
    const uint64_t diverged =
        CheckFingerprints(as_rep, rep.fingerprints, "sweep");
    out.failed = std::min(out.attempted, out.failed + diverged);
    probe_config = SweepCellConfigs(w, seed).front();
    pool_threads = static_cast<double>(w.shards);
  } else {
    probe_config = CellConfigFor(w, seed).cell;
    merge_sources = w.shards;
  }
  const ProbeResult p = RunProbes(probe_config, merge_sources);

  const double cells = static_cast<double>(std::max<uint64_t>(rep.cells, 1));
  const double base = w.sweep ? a.cell_wall_sum : rep.run_s;
  const double attributed = a.server_s + a.shard_phase_s + a.replay_s;
  double lane_sum = 0.0, lane_max = 0.0;
  for (double lane : a.lane_walls) {
    lane_sum += lane;
    lane_max = std::max(lane_max, lane);
  }
  const double imbalance =
      w.sweep || lane_sum <= 0.0
          ? 1.0
          : lane_max / (lane_sum / static_cast<double>(a.lane_walls.size()));
  const double built_reports =
      static_cast<double>(a.reports_broadcast - a.quiet_skipped_intervals) *
      a.run_over_measured;
  const double heard = static_cast<double>(a.reports_heard) * a.run_over_measured;
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  out.metrics = {
      {"exp.server_phase_s", a.server_s, "s"},
      {"exp.shard_phase_s", a.shard_phase_s, "s"},
      {"exp.shard_imbalance", imbalance, "ratio"},
      {"exp.replay_s", a.replay_s, "s"},
      {"exp.replay_records", static_cast<double>(a.replay_records), "count"},
      {"exp.replay_ns_per_record",
       1e9 * per(a.replay_s, static_cast<double>(a.replay_records)), "ns"},
      {"exp.unattributed_s", base - attributed, "s"},
      {"exp.attributed_share", per(attributed, base), "ratio"},
      {"exp.pool_utilization", per(a.cell_wall_sum, pool_threads * rep.run_s),
       "ratio"},
      {"db.update_drain_s", a.update_s, "s"},
      {"db.updates_applied", static_cast<double>(a.updates_applied), "count"},
      {"db.ns_per_update",
       1e9 * per(a.update_s, static_cast<double>(a.updates_applied)), "ns"},
      {"db.journal_bytes_peak", static_cast<double>(a.journal_bytes_peak),
       "bytes"},
      {"db.apply_probe_ns", p.apply_ns, "ns"},
      {"db.window_query_probe_ns", p.window_query_ns, "ns"},
      {"server.report_build_s", a.server_s - a.update_s, "s"},
      {"server.build_report_probe_ns", p.build_report_ns, "ns"},
      {"server.quiet_report_intervals",
       static_cast<double>(a.quiet_report_intervals), "count"},
      {"server.quiet_skipped_intervals",
       static_cast<double>(a.quiet_skipped_intervals), "count"},
      {"server.elision_ratio",
       per(static_cast<double>(a.quiet_skipped_intervals),
           static_cast<double>(a.quiet_report_intervals)),
       "ratio"},
      {"server.skipped_dispatches", static_cast<double>(skipped_dispatches),
       "count"},
      {"core.on_report_probe_ns", p.on_report_ns, "ns"},
      {"core.items_invalidated", static_cast<double>(a.items_invalidated),
       "count"},
      {"core.avg_report_bits", a.report_bits_sum / cells, "bits"},
      {"sig.diagnose_probe_ns", p.diagnose_ns, "ns"},
      {"sig.view_build_probe_ns", p.view_build_ns, "ns"},
      {"sig.signatures_per_unit", p.signatures_per_unit, "count"},
      {"mu.ns_per_awake_unit_interval", 1e9 * per(lane_sum, a.awake_unit_intervals),
       "ns"},
      {"mu.hit_ratio",
       per(static_cast<double>(a.hits), static_cast<double>(a.hits + a.misses)),
       "ratio"},
      {"mu.misses", static_cast<double>(a.misses), "count"},
      {"mu.sleep_fraction", a.sleep_fraction_sum / cells, "ratio"},
      {"sim.events", static_cast<double>(a.sim_events), "count"},
      {"sim.events_per_unit_interval",
       per(static_cast<double>(a.sim_events), a.unit_intervals), "count"},
      {"sim.dispatch_probe_ns", p.dispatch_ns, "ns"},
      {"net.report_bits", static_cast<double>(a.channel_report_bits), "bits"},
      {"net.uplink_query_count", static_cast<double>(a.channel_uplink_queries),
       "count"},
      {"net.busy_s", a.channel_busy_s, "s"},
      {"util.heap_allocs", static_cast<double>(rep.heap_allocs), "count"},
      {"util.merge_probe_ns", p.merge_ns, "ns"},
      {"analysis.model_err_h", rep.model_err_h, "abs"},
  };

  const double units = cells * static_cast<double>(w.units);
  const bool sig = w.strategy == StrategyKind::kSig && !w.sweep;
  // sim_events counts batched updates too; the scheduler dispatched the rest.
  const double dispatched =
      static_cast<double>(a.sim_events - a.updates_applied);
  PrintPredictions({
      {"db.apply_probe_ns", p.apply_ns, "updates applied",
       static_cast<double>(a.updates_applied), "db.update_drain_s", a.update_s,
       true},
      {"server.build_report_probe_ns", p.build_report_ns, "reports built",
       built_reports, "server.report_build_s", a.server_s - a.update_s, true},
      {"db.window_query_probe_ns", p.window_query_ns, "reports built",
       built_reports, "server.report_build_s", a.server_s - a.update_s, false},
      {"core.on_report_probe_ns", p.on_report_ns, "reports heard", heard,
       "shard lanes (sum)", lane_sum, false},
      {"sig.diagnose_probe_ns", sig ? p.diagnose_ns : 0.0, "reports heard",
       heard, "shard lanes (sum)", lane_sum, false},
      {"sig.view_build_probe_ns", sig ? p.view_build_ns : 0.0, "units", units,
       "setup_s", rep.setup_s, true},
      {"sim.dispatch_probe_ns", p.dispatch_ns, "events dispatched", dispatched,
       "shard lanes (sum)", lane_sum, false},
      {"util.merge_probe_ns", p.merge_ns, "replay records",
       static_cast<double>(a.replay_records), "exp.replay_s", a.replay_s,
       false},
  });

  const double share = per(attributed, base);
  std::printf("\nattribution: server %.4f + shard %.4f + replay %.4f = %.4f s "
              "of %s %.4f s -> exp.attributed_share %.4f\n",
              a.server_s, a.shard_phase_s, a.replay_s, attributed,
              w.sweep ? "summed cell walls" : "run_s", base, share);
  if (!w.sweep && share < 0.95) {
    std::printf("FLAG: %s accounts cover %.1f%% of run_s, below the 95%% "
                "attribution target\n",
                w.name, 100.0 * share);
  }
  return out;
}

void PrintJson(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed);
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  std::string workload = "";
  uint64_t seed = 1;
  double seconds = 30.0;
  uint64_t trace = 0;
  std::string fingerprints_path = "perfbench/fingerprints.tsv";
  bool record = false;
  std::string names;
  for (const Workload& w : AllWorkloads()) {
    names += names.empty() ? "" : ", ";
    names += w.name;
  }
  FlagParser flags(
      "mobicache performance benchmark: one workload, timed (--trace=0) or "
      "traced (--trace=1); the last output line is a JSON result.");
  flags.AddString("workload", workload, "workload to run: " + names, &workload);
  flags.AddUint("seed", seed, "workload seed", &seed);
  flags.AddDouble("seconds", seconds, "host-time budget of a timed run",
                  &seconds);
  flags.AddUint("trace", trace, "0: timed run, 1: traced run", &trace);
  flags.AddString("fingerprints", fingerprints_path,
                  "recorded per-cell fingerprints", &fingerprints_path);
  flags.AddBool("record", record,
                "run once and print the fingerprint line for --seed",
                &record);
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || flags.help_requested()) {
    std::fprintf(stderr, "%s%s\n", parsed.ok() ? "" : (parsed.ToString() + "\n").c_str(),
                 flags.Usage().c_str());
    return parsed.ok() ? 0 : 2;
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || trace > 1 || !(seconds > 0.0)) {
    std::fprintf(stderr, "need --workload one of {%s}, --trace 0|1, "
                 "--seconds > 0\n%s\n", names.c_str(), flags.Usage().c_str());
    return 2;
  }

  if (record) {
    const Repetition rep = RunRepetition(*w, seed, &HeapAllocs);
    if (rep.failed_cells != 0) {
      for (const std::string& f : rep.failures) std::fprintf(stderr, "%s\n", f.c_str());
      return 1;
    }
    std::printf("%s %" PRIu64, w->name, seed);
    for (uint64_t fp : rep.fingerprints) std::printf(" %s", Hex(fp).c_str());
    std::printf("\n");
    return 0;
  }

  FingerprintTable table;
  const Status loaded = LoadFingerprints(fingerprints_path, &table);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
    return 1;
  }
  Checker checker(table, *w, seed);
  std::printf("workload %s seed %" PRIu64 "\n", w->name, seed);
  const Outcome out =
      trace == 0 ? TimedRun(*w, seed, seconds, &checker)
                 : TracedRun(*w, seed, &checker);
  std::printf("\n");
  for (const Metric& m : out.metrics) {
    std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("cells attempted %" PRIu64 ", failed %" PRIu64 "\n",
              out.attempted, out.failed);
  PrintJson(out);
  return 0;
}

}  // namespace
}  // namespace mobicache::perfbench

int main(int argc, char** argv) {
  return mobicache::perfbench::Main(argc, argv);
}
