// §7 ablation — quasi-copies. Two experiments against a plain-AT baseline
// on a Scenario-1-shaped cell with elevated update rate (so reports have
// substance):
//
//  1. Delay condition: sweep alpha = j*L. Items enter reports only when the
//     oldest outstanding copy approaches its staleness budget, shrinking
//     reports and invalidating less aggressively at the cost of copies up
//     to alpha old.
//  2. Arithmetic condition: sweep epsilon over random-walk-valued items.
//     Changes are reported only when the value drifted more than epsilon
//     since its last report.

#include <iostream>

#include "bench_common.h"
#include "core/coherency.h"
#include "exp/megacell.h"
#include "util/table.h"

namespace mobicache {
namespace {

CellConfig BaseConfig() {
  CellConfig config;
  config.model.n = 1000;
  config.model.lambda = 0.1;
  config.model.mu = 2e-3;
  config.model.L = 10.0;
  config.model.s = 0.2;
  config.strategy = StrategyKind::kQuasiAt;
  config.num_units = 20;
  config.hotspot_size = 20;
  config.seed = 55;
  // The cached (hot-spot) items churn fast — that is where the delay
  // condition can coalesce several changes into one report entry; the rest
  // of the database updates at the background rate.
  config.update_rates.assign(config.model.n, 2e-3);
  for (uint64_t i = 0; i < config.hotspot_size; ++i) {
    config.update_rates[i] = 0.02;
  }
  return config;
}

CellResult RunOne(const CellConfig& config) {
  MegaCell cell({config});
  if (!cell.Build().ok() || !cell.Run(50, 400).ok()) {
    std::cerr << "cell failed\n";
    std::exit(1);
  }
  return cell.result();
}

int Run() {
  std::cout << "Quasi-copies (S7): relaxing coherency to shrink reports\n"
               "Workload: Scenario-1 shape, mu = 2e-3, s = 0.2, AT-family "
               "strategies\n\n";

  {
    std::cout << "Delay condition: alpha = j * L\n\n";
    TablePrinter table({"alpha(s)", "Bc.sim(bits)", "report entries/int",
                        "hit ratio", "uplink queries", "mean latency(s)"});
    {
      CellConfig config = BaseConfig();
      config.strategy = StrategyKind::kAt;  // plain-AT reference
      const CellResult r = RunOne(config);
      table.AddRow({"AT (exact)", TablePrinter::Num(r.avg_report_bits),
                    TablePrinter::Num(r.avg_report_bits / 10.0, 3),
                    TablePrinter::Num(r.hit_ratio),
                    TablePrinter::Int(r.channel.uplink_query_count),
                    TablePrinter::Num(r.mean_answer_latency, 3)});
    }
    // j = 1 keeps plain-AT timing but only reports items somebody holds.
    for (uint64_t j : {1, 2, 4, 8, 16}) {
      CellConfig config = BaseConfig();
      config.quasi_alpha_intervals = j;
      const CellResult r = RunOne(config);
      table.AddRow(
          {TablePrinter::Num(config.model.L * static_cast<double>(j), 4),
           TablePrinter::Num(r.avg_report_bits),
           TablePrinter::Num(r.avg_report_bits / 10.0, 3),  // id_bits = 10
           TablePrinter::Num(r.hit_ratio),
           TablePrinter::Int(r.channel.uplink_query_count),
           TablePrinter::Num(r.mean_answer_latency, 3)});
    }
    table.RenderText(std::cout);
    std::cout << "\nLarger alpha defers re-reporting of re-fetched items: "
                 "reports shrink while\nanswers may lag the server by up to "
                 "alpha seconds (bounded-staleness contract).\n\n";
  }

  {
    std::cout << "Arithmetic condition: report only drifts > epsilon "
                 "(random-walk steps in [-1, 1])\n\n";
    TablePrinter table({"epsilon", "Bc.sim(bits)", "hit ratio",
                        "uplink queries"});
    for (double eps : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
      CellConfig config = BaseConfig();
      config.quasi_arithmetic = true;
      config.quasi_epsilon = eps;
      config.numeric_step_scale = 1.0;
      const CellResult r = RunOne(config);
      table.AddRow({TablePrinter::Num(eps, 3),
                    TablePrinter::Num(r.avg_report_bits),
                    TablePrinter::Num(r.hit_ratio),
                    TablePrinter::Int(r.channel.uplink_query_count)});
    }
    table.RenderText(std::cout);
    std::cout << "\nepsilon = 0 reports every change (plain AT); growing "
                 "epsilon suppresses small\ndrifts, shrinking reports and "
                 "raising the hit ratio at bounded value error.\n";
  }
  return 0;
}

}  // namespace
}  // namespace mobicache

int main(int argc, char** argv) {
  mobicache::ParseNoFlags(
      argc, argv,
      "quasi-copies (paper §7) against a plain-AT baseline.");
  return mobicache::Run();
}
