// Megacell scaling bench: one large cell, sharded across threads by the
// interval-lockstep engine (exp/megacell.h). Sweeps the unit population
// across decades and the shard count across {1, 2, 4, ...}, verifying on the
// way that every shard count reproduces the shards=1 integer counters, and
// emits BENCH_megacell.json with per-run wall time, events/sec, the
// per-phase walls (server, shard critical path, barrier replay-merge — plus
// the replay's share of the run, the number the loser-tree merge targets),
// and the per-shard wall-time breakdown.
//
// The ISSUE's speedup criterion (>= 3x at shards=4 vs shards=1) applies to
// hosts with >= 4 hardware threads; the record always stores
// hardware_concurrency so a single-core CI container's numbers are not
// misread as a regression.
//
//   megacell [--units=1000,10000,100000,1000000] [--shards=1,2,4]
//            [--strategy=ts] [--items=10000] [--mu=0.0001]
//            [--bandwidth=10000] [--warmup=N] [--measure=N] [--seed=N]
//            [--json=PATH]
//
// The AT update-storm record (BENCH_megacell.json), on perfbench's
// update_storm_at channel: a 10^5-id report is ~2 Mb, so the default
// 10 kb/s channel would carry reports only and answer no query.
//
//   megacell --strategy=at --items=1000000 --mu=0.01 --bandwidth=1000000
//            --units=1000

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/megacell.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace mobicache {
namespace {

struct RunRecord {
  uint64_t units = 0;
  uint32_t shards = 0;
  double build_seconds = 0.0;
  double run_seconds = 0.0;
  uint64_t sim_events = 0;
  double events_per_sec = 0.0;
  double server_wall_seconds = 0.0;
  double shard_phase_wall_seconds = 0.0;
  double replay_wall_seconds = 0.0;
  uint64_t replay_records = 0;
  /// replay_wall_seconds / run_seconds: how much of the run the barrier
  /// replay-merge cost, which is exactly what the loser-tree + pre-merge
  /// work is meant to shrink.
  double replay_share = 0.0;
  std::vector<double> shard_wall_seconds;
  double hit_ratio = 0.0;
  uint64_t queries_answered = 0;
  double speedup_vs_shards1 = 0.0;
  bool matches_shards1 = true;
};

struct BenchArgs {
  std::vector<uint64_t> units{1000, 10000, 100000, 1000000};
  std::vector<uint64_t> shards{1, 2, 4};
  std::string strategy_name = "ts";
  uint64_t items = 10000;
  double mu = 1e-4;
  double bandwidth = 1e4;
  StrategyKind strategy = StrategyKind::kTs;  ///< Parsed from strategy_name.
  uint64_t warmup = 2;
  uint64_t measure = 10;
  uint64_t seed = 42;
  std::string json_path = "BENCH_megacell.json";
};

/// Registers every flag on `flags`, defaults taken from `args`.
void AddFlags(FlagParser* flags, BenchArgs* args) {
  flags->AddUintList("units", args->units, "unit populations to sweep",
                     &args->units);
  flags->AddUintList("shards", args->shards,
                     "shard counts to sweep (0 is skipped as invalid)",
                     &args->shards);
  flags->AddString("strategy", args->strategy_name,
                   "cell strategy by short name: ts, at, sig, nocache, ats,\n"
                   "      ideal, stateful, qat, async, gat, hyb (any case)",
                   &args->strategy_name);
  flags->AddUint("items", args->items, "database size n", &args->items);
  flags->AddDouble("mu", args->mu, "update rate per item per second",
                   &args->mu);
  flags->AddDouble("bandwidth", args->bandwidth,
                   "channel bandwidth W, bits per second", &args->bandwidth);
  flags->AddUint("warmup", args->warmup, "warm-up intervals", &args->warmup);
  flags->AddUint("measure", args->measure, "measured intervals",
                 &args->measure);
  flags->AddUint("seed", args->seed, "cell seed", &args->seed);
  flags->AddString("json", args->json_path, "bench record path",
                   &args->json_path);
}

std::string Lowercase(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Range checks the parser's types cannot express; resolves --strategy.
Status ValidateArgs(BenchArgs* args) {
  bool known = false;
  for (int k = 0; k <= static_cast<int>(StrategyKind::kHybridSig); ++k) {
    const StrategyKind kind = static_cast<StrategyKind>(k);
    if (Lowercase(StrategyName(kind)) == Lowercase(args->strategy_name)) {
      args->strategy = kind;
      known = true;
    }
  }
  if (!known) {
    return Status::InvalidArgument("--strategy: unknown strategy '" +
                                   args->strategy_name + "'");
  }
  if (args->items == 0) {
    return Status::InvalidArgument("--items must be at least 1");
  }
  if (!(args->mu >= 0.0 && std::isfinite(args->mu))) {
    return Status::InvalidArgument("--mu must be finite and non-negative");
  }
  if (!(args->bandwidth > 0.0 && std::isfinite(args->bandwidth))) {
    return Status::InvalidArgument("--bandwidth must be finite and positive");
  }
  return Status::OK();
}

/// One cell configuration scaled to `units` MUs. By default a 10^4-item TS
/// database with a small shared hot spot keeps per-unit event rates
/// paper-like (~1 query per unit-interval) while the population carries the
/// scaling load; --strategy, --items, --mu and --bandwidth reshape the
/// server's side.
MegaCellConfig MakeConfig(const BenchArgs& args, uint64_t units,
                          uint64_t shards) {
  MegaCellConfig mc;
  mc.cell.model.n = args.items;
  mc.cell.model.lambda = 0.01;
  mc.cell.model.mu = args.mu;
  mc.cell.model.L = 10.0;
  mc.cell.model.W = args.bandwidth;
  mc.cell.model.s = 0.3;
  mc.cell.strategy = args.strategy;
  mc.cell.num_units = units;
  mc.cell.hotspot_size = 8;
  mc.cell.seed = args.seed;
  mc.num_shards = static_cast<uint32_t>(shards);
  return mc;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void WriteJson(const BenchArgs& args, const std::vector<RunRecord>& runs,
               std::ostream& os) {
  os << "{\n";
  os << "  \"name\": \"megacell\",\n";
  os << "  \"strategy\": \"" << Lowercase(StrategyName(args.strategy))
     << "\",\n";
  os << "  \"items\": " << args.items << ",\n";
  os << "  \"mu\": " << Num(args.mu) << ",\n";
  os << "  \"bandwidth\": " << Num(args.bandwidth) << ",\n";
  os << "  \"hardware_concurrency\": " << ThreadPool::DefaultThreadCount()
     << ",\n";
  os << "  \"warmup_intervals\": " << args.warmup << ",\n";
  os << "  \"measure_intervals\": " << args.measure << ",\n";
  os << "  \"seed\": " << args.seed << ",\n";
  os << "  \"runs\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"units\": " << r.units << ", \"shards\": " << r.shards
       << ", \"build_seconds\": " << Num(r.build_seconds)
       << ", \"run_seconds\": " << Num(r.run_seconds)
       << ", \"sim_events\": " << r.sim_events
       << ", \"events_per_sec\": " << Num(r.events_per_sec)
       << ", \"server_wall_seconds\": " << Num(r.server_wall_seconds)
       << ", \"shard_phase_wall_seconds\": " << Num(r.shard_phase_wall_seconds)
       << ", \"replay_wall_seconds\": " << Num(r.replay_wall_seconds)
       << ", \"replay_records\": " << r.replay_records
       << ", \"replay_share\": " << Num(r.replay_share)
       << ", \"shard_wall_seconds\": [";
    for (size_t s = 0; s < r.shard_wall_seconds.size(); ++s) {
      os << (s == 0 ? "" : ", ") << Num(r.shard_wall_seconds[s]);
    }
    os << "], \"hit_ratio\": " << Num(r.hit_ratio)
       << ", \"queries_answered\": " << r.queries_answered
       << ", \"speedup_vs_shards1\": " << Num(r.speedup_vs_shards1)
       << ", \"matches_shards1\": " << (r.matches_shards1 ? "true" : "false")
       << "}";
  }
  os << (runs.empty() ? "]" : "\n  ]") << "\n}\n";
}

int Main(int argc, char** argv) {
  BenchArgs args;
  FlagParser flags(
      "megacell: one large cell sharded across threads, swept over unit "
      "population and\nshard count; checks every shard count against "
      "shards=1.");
  AddFlags(&flags, &args);
  Status parsed = flags.Parse(argc, argv);
  if (parsed.ok()) parsed = ValidateArgs(&args);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  std::vector<RunRecord> runs;
  int exit_code = 0;

  for (uint64_t units : args.units) {
    double shards1_seconds = 0.0;
    CellResult shards1_result;
    bool have_baseline = false;
    for (uint64_t shards : args.shards) {
      if (shards == 0 || shards > units) {
        std::printf("units=%llu shards=%llu: skipped (invalid combination)\n",
                    static_cast<unsigned long long>(units),
                    static_cast<unsigned long long>(shards));
        continue;
      }
      MegaCell cell(MakeConfig(args, units, shards));

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
        std::fprintf(stderr, "units=%llu shards=%llu failed: %s\n",
                     static_cast<unsigned long long>(units),
                     static_cast<unsigned long long>(shards),
                     st.ToString().c_str());
        return 1;
      }
      RunRecord rec;
      rec.units = units;
      rec.shards = static_cast<uint32_t>(shards);
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
      rec.server_wall_seconds = cell.server_wall_seconds();
      rec.shard_phase_wall_seconds = cell.shard_phase_wall_seconds();
      rec.replay_wall_seconds = cell.replay_wall_seconds();
      rec.replay_records = cell.replay_records();
      rec.replay_share = rec.run_seconds > 0.0
                             ? rec.replay_wall_seconds / rec.run_seconds
                             : 0.0;
      for (const MegaCellShardStats& ss : cell.shard_stats()) {
        rec.shard_wall_seconds.push_back(ss.wall_seconds);
      }
      rec.hit_ratio = result.hit_ratio;
      rec.queries_answered = result.queries_answered;
      if (!have_baseline) {
        shards1_seconds = rec.run_seconds;
        shards1_result = result;
        have_baseline = true;
        rec.speedup_vs_shards1 = 1.0;
      } else {
        rec.speedup_vs_shards1 =
            rec.run_seconds > 0.0 ? shards1_seconds / rec.run_seconds : 0.0;
        // The lockstep engine promises byte-identical statistics at any
        // shard count; the integer counters catch any violation for free.
        rec.matches_shards1 =
            result.queries_answered == shards1_result.queries_answered &&
            result.hits == shards1_result.hits &&
            result.misses == shards1_result.misses &&
            result.reports_heard == shards1_result.reports_heard &&
            result.reports_missed == shards1_result.reports_missed &&
            result.items_invalidated == shards1_result.items_invalidated;
        if (!rec.matches_shards1) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: units=%llu shards=%llu "
                       "diverges from the first shard count\n",
                       static_cast<unsigned long long>(units),
                       static_cast<unsigned long long>(shards));
          exit_code = 1;
        }
      }
      std::printf(
          "units=%-8llu shards=%-2u build %6.2fs  run %7.2fs  %.3g events/s  "
          "server %6.2fs  replay %4.1f%%  speedup %.2fx  h=%.4f%s\n",
          static_cast<unsigned long long>(units), rec.shards,
          rec.build_seconds, rec.run_seconds, rec.events_per_sec,
          rec.server_wall_seconds, 100.0 * rec.replay_share,
          rec.speedup_vs_shards1, rec.hit_ratio,
          rec.matches_shards1 ? "" : "  [MISMATCH]");
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
  return exit_code;
}

}  // namespace
}  // namespace mobicache

int main(int argc, char** argv) { return mobicache::Main(argc, argv); }
