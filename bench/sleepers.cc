// Sleeper-population scaling bench: one classic (unsharded) cell swept
// across sleep probability s and population size, measuring how many
// discrete events the engine dispatches and how fast. The point of the
// sleep fast-forward + batched-arrival engine is that a sleeping unit costs
// ~zero events, so dispatched events should track *awake* work, not
// units x intervals.
//
// Each record carries `baseline_event_model`: the event count the
// per-interval engine would have dispatched for the same run (one ticker
// event per unit-interval plus one heap event per query arrival,
// extrapolated from the measured arrival count; server-side events are
// identical in both engines and excluded). `events_eliminated` is the model
// minus the actual dispatch count — ~0 when run against a per-interval
// engine, and ~the sleeper share of the workload after fast-forwarding.
//
//   sleepers [--units=10000,100000,1000000] [--s=0.5,0.9,0.99]
//            [--warmup=N] [--measure=N] [--seed=N] [--json=PATH]
//
// Defaults follow the paper's methodology (5 warm-up + 60 measured
// intervals, the same run length as the golden and megacell tests).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/cell.h"
#include "util/flags.h"

namespace mobicache {
namespace {

struct RunRecord {
  uint64_t units = 0;
  double s = 0.0;
  double build_seconds = 0.0;
  double run_seconds = 0.0;
  /// Wall time in the server's broadcast path (build/elide + fan-out),
  /// warmup included — the quiet-elision win shows up here: at high s most
  /// intervals are elided and server_seconds collapses toward zero.
  double server_seconds = 0.0;
  uint64_t sim_events = 0;
  double events_per_sec = 0.0;
  uint64_t baseline_event_model = 0;
  int64_t events_eliminated = 0;
  /// Measured intervals nobody heard, and the subset the server elided
  /// outright (always <= quiet_report_intervals).
  uint64_t quiet_report_intervals = 0;
  uint64_t quiet_skipped_intervals = 0;
  double hit_ratio = 0.0;
  uint64_t queries_answered = 0;
  double measured_sleep_fraction = 0.0;
};

struct BenchArgs {
  std::vector<uint64_t> units{10000, 100000, 1000000};
  std::vector<double> sleep_probs{0.5, 0.9, 0.99};
  uint64_t warmup = 5;
  uint64_t measure = 60;
  uint64_t seed = 42;
  std::string json_path = "BENCH_sleepers.json";
};

/// Registers every flag on `flags`, defaults taken from `args`.
void AddFlags(FlagParser* flags, BenchArgs* args) {
  flags->AddUintList("units", args->units, "unit populations to sweep",
                     &args->units);
  flags->AddDoubleList("s", args->sleep_probs,
                       "sleep probabilities to sweep, each in [0, 1]",
                       &args->sleep_probs);
  flags->AddUint("warmup", args->warmup, "warm-up intervals", &args->warmup);
  flags->AddUint("measure", args->measure, "measured intervals",
                 &args->measure);
  flags->AddUint("seed", args->seed, "cell seed", &args->seed);
  flags->AddString("json", args->json_path, "bench record path",
                   &args->json_path);
}

/// Range checks the parser's types cannot express.
Status ValidateArgs(const BenchArgs& args) {
  for (double s : args.sleep_probs) {
    if (!(s >= 0.0 && s <= 1.0)) {
      return Status::InvalidArgument("--s values must lie in [0, 1]");
    }
  }
  return Status::OK();
}

/// Same workload shape as the megacell bench (10^4-item database, small
/// shared hot spot, ~0.8 queries per awake unit-interval) with s swept.
CellConfig MakeConfig(uint64_t units, double s, uint64_t seed) {
  CellConfig cc;
  cc.model.n = 10000;
  cc.model.lambda = 0.01;
  cc.model.mu = 1e-4;
  cc.model.L = 10.0;
  cc.model.s = s;
  cc.strategy = StrategyKind::kTs;
  cc.num_units = units;
  cc.hotspot_size = 8;
  cc.seed = seed;
  return cc;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void WriteJson(const BenchArgs& args, const std::vector<RunRecord>& runs,
               std::ostream& os) {
  os << "{\n";
  os << "  \"name\": \"sleepers\",\n";
  os << "  \"strategy\": \"ts\",\n";
  os << "  \"warmup_intervals\": " << args.warmup << ",\n";
  os << "  \"measure_intervals\": " << args.measure << ",\n";
  os << "  \"seed\": " << args.seed << ",\n";
  os << "  \"runs\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"units\": " << r.units << ", \"s\": " << Num(r.s)
       << ", \"build_seconds\": " << Num(r.build_seconds)
       << ", \"run_seconds\": " << Num(r.run_seconds)
       << ", \"sim_events\": " << r.sim_events
       << ", \"events_per_sec\": " << Num(r.events_per_sec)
       << ", \"server_seconds\": " << Num(r.server_seconds)
       << ", \"baseline_event_model\": " << r.baseline_event_model
       << ", \"events_eliminated\": " << r.events_eliminated
       << ", \"quiet_report_intervals\": " << r.quiet_report_intervals
       << ", \"quiet_skipped_intervals\": " << r.quiet_skipped_intervals
       << ", \"hit_ratio\": " << Num(r.hit_ratio)
       << ", \"queries_answered\": " << r.queries_answered
       << ", \"measured_sleep_fraction\": " << Num(r.measured_sleep_fraction)
       << "}";
  }
  os << (runs.empty() ? "]" : "\n  ]") << "\n}\n";
}

int Main(int argc, char** argv) {
  BenchArgs args;
  FlagParser flags(
      "sleepers: one unsharded cell swept across sleep probability and unit "
      "population,\ncounting dispatched events against the per-interval "
      "engine's model.");
  AddFlags(&flags, &args);
  Status parsed = flags.Parse(argc, argv);
  if (parsed.ok()) parsed = ValidateArgs(args);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  std::vector<RunRecord> runs;

  for (uint64_t units : args.units) {
    for (double s : args.sleep_probs) {
      Cell cell(MakeConfig(units, s, args.seed));

      auto t0 = std::chrono::steady_clock::now();
      Status st = cell.Build();
      const double build_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (st.ok()) {
        t0 = std::chrono::steady_clock::now();
        st = cell.Run(args.warmup, args.measure);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "units=%llu s=%g failed: %s\n",
                     static_cast<unsigned long long>(units), s,
                     st.ToString().c_str());
        return 1;
      }
      RunRecord rec;
      rec.units = units;
      rec.s = s;
      rec.build_seconds = build_seconds;
      rec.run_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const CellResult result = cell.result();
      rec.sim_events = result.sim_events;
      rec.events_per_sec = rec.run_seconds > 0.0
                               ? static_cast<double>(result.sim_events) /
                                     rec.run_seconds
                               : 0.0;
      // Per-interval-engine model: one ticker event per unit-interval (ticks
      // at T_0..T_{W+M}) plus one heap event per query arrival. The measured
      // phase counts arrivals exactly; warmup's share is extrapolated by run
      // length (the process is stationary).
      uint64_t measured_arrivals = 0;
      for (const MobileUnit* unit : cell.units()) {
        measured_arrivals += unit->stats().queries_issued;
      }
      const double intervals_total =
          static_cast<double>(args.warmup + args.measure) + 0.5;
      const double arrivals_total =
          static_cast<double>(measured_arrivals) * intervals_total /
          static_cast<double>(args.measure);
      rec.baseline_event_model =
          units * (args.warmup + args.measure + 1) +
          static_cast<uint64_t>(arrivals_total);
      rec.events_eliminated = static_cast<int64_t>(rec.baseline_event_model) -
                              static_cast<int64_t>(rec.sim_events);
      rec.server_seconds = cell.server_wall_seconds();
      rec.quiet_report_intervals = result.quiet_report_intervals;
      rec.quiet_skipped_intervals = result.quiet_skipped_intervals;
      rec.hit_ratio = result.hit_ratio;
      rec.queries_answered = result.queries_answered;
      rec.measured_sleep_fraction = result.measured_sleep_fraction;
      std::printf(
          "units=%-8llu s=%-5g build %6.2fs  run %7.2fs  server %6.3fs  "
          "%9llu events (%.3g/s)  eliminated %lld  quiet %llu/%llu  "
          "sleep=%.3f  h=%.4f\n",
          static_cast<unsigned long long>(units), s, rec.build_seconds,
          rec.run_seconds, rec.server_seconds,
          static_cast<unsigned long long>(rec.sim_events), rec.events_per_sec,
          static_cast<long long>(rec.events_eliminated),
          static_cast<unsigned long long>(rec.quiet_skipped_intervals),
          static_cast<unsigned long long>(rec.quiet_report_intervals),
          rec.measured_sleep_fraction, rec.hit_ratio);
      std::fflush(stdout);
      runs.push_back(std::move(rec));
    }
  }

  std::ofstream out(args.json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", args.json_path.c_str());
    return 1;
  }
  WriteJson(args, runs, out);
  std::printf("bench record written to %s\n", args.json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace mobicache

int main(int argc, char** argv) { return mobicache::Main(argc, argv); }
