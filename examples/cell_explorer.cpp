// Interactive workload explorer: run one fully configurable cell from the
// command line and print every statistic the library measures, next to the
// analytic model's prediction. The quickest way to poke at the design space
// without writing code.
//
//   ./build/examples/cell_explorer --strategy=TS --s=0.5 --k=20
//   ./build/examples/cell_explorer --strategy=SIG --mu=0.001 --f=20
//   ./build/examples/cell_explorer --help

#include <iostream>
#include <string>

#include "exp/megacell.h"
#include "exp/sweep.h"
#include "util/bits.h"
#include "util/flags.h"
#include "util/table.h"

using namespace mobicache;

namespace {

StatusOr<StrategyKind> ParseStrategy(const std::string& name) {
  for (StrategyKind kind :
       {StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kSig,
        StrategyKind::kNoCache, StrategyKind::kAdaptiveTs,
        StrategyKind::kIdeal, StrategyKind::kStateful, StrategyKind::kQuasiAt,
        StrategyKind::kAsync, StrategyKind::kGroupedAt,
        StrategyKind::kHybridSig}) {
    if (name == StrategyName(kind)) return kind;
  }
  return Status::InvalidArgument(
      "unknown strategy '" + name +
      "' (try TS, AT, SIG, nocache, ATS, ideal, stateful, QAT, async, GAT, "
      "HYB)");
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "cell_explorer: simulate one wireless cell under a chosen invalidation "
      "strategy\nand compare the measured statistics with the paper's "
      "analytical model.");

  std::string strategy_name;
  ModelParams m;
  uint64_t units, hotspot, warmup, measure, seed, num_groups, alpha;
  bool renewal;
  double mean_awake, mean_sleep, query_zipf;

  flags.AddString("strategy", "TS",
                  "TS, AT, SIG, nocache, ATS, ideal, stateful, QAT, async, "
                  "GAT, or HYB",
                  &strategy_name);
  flags.AddDouble("lambda", m.lambda, "query rate per hot-spot item (1/s)",
                  &m.lambda);
  flags.AddDouble("mu", m.mu, "update rate per item (1/s)", &m.mu);
  flags.AddDouble("L", m.L, "broadcast latency (s)", &m.L);
  flags.AddDouble("s", m.s, "per-interval sleep probability", &m.s);
  flags.AddUint("n", m.n, "database size", &m.n);
  flags.AddDouble("W", m.W, "channel bandwidth (bits/s)", &m.W);
  flags.AddUint("bT", m.bT, "timestamp bits", &m.bT);
  flags.AddUint("k", m.k, "TS window in intervals", &m.k);
  uint64_t f_flag = m.f, g_flag = m.g;
  flags.AddUint("f", f_flag, "SIG design difference count", &f_flag);
  flags.AddUint("g", g_flag, "SIG signature bits", &g_flag);
  flags.AddUint("units", 20, "mobile units in the cell", &units);
  flags.AddUint("hotspot", 20, "hot-spot size per unit", &hotspot);
  flags.AddUint("warmup", 50, "warm-up intervals", &warmup);
  flags.AddUint("measure", 400, "measured intervals", &measure);
  flags.AddUint("seed", 1, "master seed", &seed);
  flags.AddUint("groups", 32, "GAT partition size G", &num_groups);
  flags.AddUint("alpha", 4, "QAT delay condition, in intervals", &alpha);
  flags.AddBool("renewal", false, "use renewal on/off sleep instead of "
                "Bernoulli(s)", &renewal);
  flags.AddDouble("mean-awake", 120.0, "renewal mean awake period (s)",
                  &mean_awake);
  flags.AddDouble("mean-sleep", 60.0, "renewal mean sleep period (s)",
                  &mean_sleep);
  flags.AddDouble("query-zipf", 0.0,
                  "Zipf exponent for in-hot-spot query popularity",
                  &query_zipf);

  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  m.f = static_cast<uint32_t>(f_flag);
  m.g = static_cast<uint32_t>(g_flag);

  const StatusOr<StrategyKind> kind = ParseStrategy(strategy_name);
  if (!kind.ok()) {
    std::cerr << kind.status().ToString() << "\n";
    return 2;
  }

  CellConfig config;
  config.model = m;
  config.strategy = *kind;
  config.num_units = units;
  config.hotspot_size = hotspot;
  config.seed = seed;
  config.num_groups = static_cast<uint32_t>(num_groups);
  config.quasi_alpha_intervals = alpha;
  config.renewal_sleep = renewal;
  config.mean_awake_seconds = mean_awake;
  config.mean_sleep_seconds = mean_sleep;
  config.query_zipf_theta = query_zipf;

  MegaCell cell({config});
  if (Status st = cell.Build(); !st.ok()) {
    std::cerr << "Build failed: " << st.ToString() << "\n";
    return 1;
  }
  if (Status st = cell.Run(warmup, measure); !st.ok()) {
    std::cerr << "Run failed: " << st.ToString() << "\n";
    return 1;
  }

  const CellResult r = cell.result();
  const StrategyEval model = EvalStrategyModel(*kind, m);

  std::cout << "strategy " << StrategyName(*kind) << " | lambda=" << m.lambda
            << " mu=" << m.mu << " L=" << m.L << " s=" << m.s << " n=" << m.n
            << " W=" << m.W << " | " << units << " units x hotspot "
            << hotspot << "\n\n";

  TablePrinter table({"metric", "simulated", "model"});
  table.AddRow({"hit ratio", TablePrinter::Num(r.hit_ratio),
                TablePrinter::Num(model.hit_ratio)});
  table.AddRow({"report bits Bc", FormatBits(r.avg_report_bits),
                FormatBits(model.report_bits)});
  table.AddRow({"throughput (q/interval)", TablePrinter::Num(r.throughput),
                TablePrinter::Num(model.throughput)});
  table.AddRow({"effectiveness e", TablePrinter::Num(r.effectiveness),
                model.feasible ? TablePrinter::Num(model.effectiveness)
                               : std::string("infeasible")});
  table.AddRow({"answer latency (s)", TablePrinter::Num(r.mean_answer_latency),
                TablePrinter::Num(
                    ExpectedAnswerLatency(m, model.report_bits))});
  table.AddRow({"queries answered", TablePrinter::Int(r.queries_answered),
                ""});
  table.AddRow({"sleep fraction", TablePrinter::Num(r.measured_sleep_fraction),
                TablePrinter::Num(m.s)});
  table.AddRow({"reports heard / missed",
                TablePrinter::Int(r.reports_heard) + " / " +
                    TablePrinter::Int(r.reports_missed),
                ""});
  table.AddRow({"items invalidated", TablePrinter::Int(r.items_invalidated),
                ""});
  table.AddRow({"uplink bits", FormatBits(
                    static_cast<double>(r.channel.uplink_query_bits)),
                ""});
  table.AddRow({"downlink bits",
                FormatBits(static_cast<double>(r.channel.report_bits +
                                               r.channel.downlink_answer_bits)),
                ""});
  table.RenderText(std::cout);
  return 0;
}
