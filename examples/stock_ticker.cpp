// Example 1 from the paper's introduction: mobile users follow business
// data (stock quotes) through personal filters, waking their palmtops for
// short bursts. Quotes are numeric, so the cell can relax coherency with
// the arithmetic quasi-copy condition of §7: a price change is only worth
// an invalidation if it moved the value by more than the user-visible tick.
//
// This example compares exact AT invalidation with arithmetic quasi-copies
// at two tolerances, showing the report shrinking and the hit ratio rising
// while staleness stays value-bounded.

#include <cstdio>
#include <iostream>

#include "exp/megacell.h"
#include "util/table.h"

int main() {
  using namespace mobicache;

  // A quote universe of 5000 instruments; each client watches 25 of them
  // (its filter) and wakes for roughly one interval in three.
  CellConfig base;
  base.model.n = 5000;
  base.model.lambda = 0.2;   // bursty reads while awake
  base.model.mu = 5e-3;      // ~25 price ticks per broadcast interval
  base.model.L = 10.0;
  base.model.s = 0.65;
  base.strategy = StrategyKind::kQuasiAt;
  base.quasi_arithmetic = true;
  base.numeric_step_scale = 0.25;  // price ticks in [-0.25, 0.25]
  base.num_units = 30;
  base.hotspot_size = 25;
  base.shared_hotspot = false;  // every user has their own filter
  base.seed = 2024;

  std::cout << "Stock ticker (paper Example 1): arithmetic quasi-copies "
               "over a quote stream\n\n";

  TablePrinter table({"coherency", "Bc(bits)", "hit ratio",
                      "uplink queries", "answer latency(s)"});
  struct Row {
    const char* label;
    double epsilon;
  };
  for (const Row& row : {Row{"exact (eps=0)", 0.0},
                         Row{"quasi eps=0.5", 0.5},
                         Row{"quasi eps=2.0", 2.0}}) {
    CellConfig config = base;
    config.quasi_epsilon = row.epsilon;
    MegaCell cell({config});
    if (Status st = cell.Build(); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    if (Status st = cell.Run(40, 400); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    const CellResult r = cell.result();
    table.AddRow({row.label, TablePrinter::Num(r.avg_report_bits),
                  TablePrinter::Num(r.hit_ratio),
                  TablePrinter::Int(r.channel.uplink_query_count),
                  TablePrinter::Num(r.mean_answer_latency, 3)});
  }
  table.RenderText(std::cout);
  std::cout << "\nWith eps = 2.0 a cached quote may deviate from the server "
               "by at most 2.0\n(about 8 ticks), in exchange for a fraction "
               "of the invalidation traffic.\n";
  return 0;
}
