// §10 extension bench — hybrid SIG. Workload built to kill plain SIG the
// way Scenarios 2/4/5 do: the per-interval change volume exceeds the
// signature design point f, but the churn is concentrated on a small hot
// set. Broadcasting that hot set individually (a handful of id entries)
// and signing only the cold remainder restores SIG's sleeper robustness.

#include <iostream>

#include "bench_common.h"
#include "exp/megacell.h"
#include "util/table.h"

namespace mobicache {
namespace {

CellResult RunOne(StrategyKind kind, double s) {
  CellConfig config;
  config.model.n = 1000;
  config.model.lambda = 0.1;
  config.model.f = 5;  // designed for 5 differences...
  config.model.s = s;
  config.strategy = kind;
  config.num_units = 20;
  config.hotspot_size = 20;
  config.seed = 17;
  // ...but ~2 changes per interval land on 10 hot items, plus a slow cold
  // background, so naps quickly accumulate more than f changes.
  config.update_rates.assign(config.model.n, 5e-5);
  for (int i = 0; i < 10; ++i) config.update_rates[i] = 0.02;
  config.hybrid_hot_set = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  MegaCell cell({config});
  if (!cell.Build().ok() || !cell.Run(40, 500).ok()) {
    std::cerr << "cell failed\n";
    std::exit(1);
  }
  return cell.result();
}

int Run() {
  std::cout
      << "Hybrid SIG (S10): hot items broadcast individually, cold items "
         "signed\n(n = 1000, f = 5, 10 hot churners at mu = 0.02, cold "
         "background at 5e-5)\n\n";
  TablePrinter table({"s", "strategy", "hit ratio", "Bc(bits)",
                      "effectiveness"});
  for (double s : {0.0, 0.4, 0.8}) {
    for (StrategyKind kind : {StrategyKind::kSig, StrategyKind::kAt,
                              StrategyKind::kHybridSig}) {
      const CellResult r = RunOne(kind, s);
      table.AddRow({TablePrinter::Num(s, 2),
                    std::string(StrategyName(kind)),
                    TablePrinter::Num(r.hit_ratio),
                    TablePrinter::Num(r.avg_report_bits),
                    TablePrinter::Num(r.effectiveness)});
    }
  }
  table.RenderText(std::cout);
  std::cout << "\nPlain SIG's syndrome floods whenever a nap accumulates "
               "more than f changes\n(hot churn makes that constant); AT is "
               "exact but amnesic across naps. The\nhybrid pays a few id "
               "entries per report to keep the signatures clean, and\n"
               "keeps SIG's nap-robust revalidation for the cold majority "
               "of the cache.\n";
  return 0;
}

}  // namespace
}  // namespace mobicache

int main(int argc, char** argv) {
  mobicache::ParseNoFlags(
      argc, argv,
      "hybrid SIG (paper §10): hot items broadcast individually, cold\n"
      "items signed, against plain SIG and AT.");
  return mobicache::Run();
}
