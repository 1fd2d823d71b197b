// Quickstart: simulate one wireless cell where 20 mobile units cache a
// 1000-item database under each invalidation strategy, and compare hit
// ratio, report size, and effectiveness for a moderately sleepy population
// (s = 0.4). Mirrors Scenario 1 of the paper with the sleep probability
// fixed.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <iostream>

#include "analysis/model.h"
#include "exp/megacell.h"
#include "exp/sweep.h"
#include "util/table.h"

int main() {
  using namespace mobicache;

  ModelParams params;  // defaults = Scenario 1
  params.s = 0.4;

  const StrategyKind kinds[] = {StrategyKind::kTs, StrategyKind::kAt,
                                StrategyKind::kSig, StrategyKind::kNoCache,
                                StrategyKind::kIdeal};

  TablePrinter table({"strategy", "h.model", "h.sim", "Bc.model", "Bc.sim",
                      "e.model", "e.sim", "queries", "latency(s)"});

  for (StrategyKind kind : kinds) {
    const StrategyEval model = EvalStrategyModel(kind, params);

    CellConfig config;
    config.model = params;
    config.strategy = kind;
    config.num_units = 20;
    config.hotspot_size = 20;
    config.seed = 7;

    MegaCell cell({config});
    if (Status st = cell.Build(); !st.ok()) {
      std::cerr << "Build failed: " << st.ToString() << "\n";
      return 1;
    }
    if (Status st = cell.Run(/*warmup_intervals=*/50,
                             /*measure_intervals=*/400);
        !st.ok()) {
      std::cerr << "Run failed: " << st.ToString() << "\n";
      return 1;
    }
    const CellResult r = cell.result();

    table.AddRow({std::string(StrategyName(kind)),
                  TablePrinter::Num(model.hit_ratio),
                  TablePrinter::Num(r.hit_ratio),
                  TablePrinter::Num(model.report_bits),
                  TablePrinter::Num(r.avg_report_bits),
                  TablePrinter::Num(model.effectiveness),
                  TablePrinter::Num(r.effectiveness),
                  TablePrinter::Int(r.queries_answered),
                  TablePrinter::Num(r.mean_answer_latency, 3)});
  }

  std::cout << "Scenario-1 workload, s = 0.4 (model vs. simulation)\n\n";
  table.RenderText(std::cout);
  std::cout << "\nTS keeps its cache across naps (window w = kL); AT drops"
               "\nits cache after any missed report; SIG revalidates from"
               "\ncombined signatures; 'ideal' is the unattainable stateful"
               "\nbound that defines e = 1.\n";
  return 0;
}
