// Compressed-report ablation (§2 taxonomy / §10 "aggregate invalidation
// reports"): sweep the number of groups G. Fine partitions behave like
// plain AT with cheaper per-entry ids; coarse partitions shrink the report
// further but invalidate whole blocks (group-level false alarms), killing
// the hit ratio. The table shows the model and simulation side by side.

#include <iostream>
#include <string>

#include "bench_common.h"
#include "analysis/model.h"
#include "exp/megacell.h"
#include "util/table.h"

namespace mobicache {
namespace {

int Run() {
  ModelParams params;  // Scenario-1 shape...
  params.mu = 1e-3;    // ...with enough churn for groups to matter
  params.s = 0.3;

  std::cout << "Compressed (grouped) AT reports: sweeping the partition "
               "size G\n(n = 1000, mu = 1e-3, s = 0.3)\n\n";

  TablePrinter table({"G", "block", "h.model", "h.sim", "Bc.model", "Bc.sim",
                      "e.model", "e.sim"});

  // Plain AT reference row.
  {
    CellConfig config;
    config.model = params;
    config.strategy = StrategyKind::kAt;
    config.num_units = 20;
    config.hotspot_size = 20;
    config.seed = 21;
    MegaCell cell({config});
    if (!cell.Build().ok() || !cell.Run(40, 400).ok()) return 1;
    const CellResult r = cell.result();
    const StrategyEval model = EvalAt(params);
    table.AddRow({"AT", "1", TablePrinter::Num(model.hit_ratio),
                  TablePrinter::Num(r.hit_ratio),
                  TablePrinter::Num(model.report_bits),
                  TablePrinter::Num(r.avg_report_bits),
                  TablePrinter::Num(model.effectiveness),
                  TablePrinter::Num(r.effectiveness)});
  }

  for (uint32_t groups : {1000, 250, 64, 16, 4}) {
    CellConfig config;
    config.model = params;
    config.strategy = StrategyKind::kGroupedAt;
    config.num_groups = groups;
    config.num_units = 20;
    config.hotspot_size = 20;
    config.seed = 21;
    MegaCell cell({config});
    if (!cell.Build().ok() || !cell.Run(40, 400).ok()) return 1;
    const CellResult r = cell.result();
    const StrategyEval model = EvalGroupedAt(params, groups);
    table.AddRow({TablePrinter::Int(groups),
                  TablePrinter::Int((1000 + groups - 1) / groups),
                  TablePrinter::Num(model.hit_ratio),
                  TablePrinter::Num(r.hit_ratio),
                  TablePrinter::Num(model.report_bits),
                  TablePrinter::Num(r.avg_report_bits),
                  TablePrinter::Num(model.effectiveness),
                  TablePrinter::Num(r.effectiveness)});
  }
  table.RenderText(std::cout);
  std::cout << "\nG = n matches plain AT's hit ratio at identical id cost; "
               "shrinking G saves\nbits per entry but the block-level false "
               "alarms quickly dominate — on this\nworkload the compression "
               "never pays, matching the intuition that aggregate\nreports "
               "only help when co-grouped items are queried together.\n";
  return 0;
}

}  // namespace
}  // namespace mobicache

int main(int argc, char** argv) {
  mobicache::ParseNoFlags(
      argc, argv,
      "grouped (compressed) invalidation reports, sweeping the\n"
      "number of groups G (paper §2 and §10).");
  return mobicache::Run();
}
