// "Sleepers and workaholics" head to head: the paper's central taxonomy as
// a runnable demo. Two cells run the same Scenario-1 workload — one with a
// workaholic population (s = 0.05), one with heavy sleepers (s = 0.8) — and
// each cell ranks the strategies by measured effectiveness, reproducing the
// paper's §5 conclusions live. A third run shows the §8 adaptive server
// serving a *mixed* population without knowing who sleeps.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "exp/megacell.h"
#include "util/table.h"

using namespace mobicache;

namespace {

struct Ranked {
  std::string name;
  double effectiveness;
  double hit_ratio;
};

std::vector<Ranked> RankStrategies(double sleep_probability) {
  std::vector<Ranked> out;
  for (StrategyKind kind : {StrategyKind::kTs, StrategyKind::kAt,
                            StrategyKind::kSig, StrategyKind::kNoCache}) {
    CellConfig config;
    config.model.s = sleep_probability;  // Scenario-1 defaults otherwise
    config.model.k = 20;
    config.strategy = kind;
    config.num_units = 20;
    config.hotspot_size = 20;
    config.seed = 99;
    MegaCell cell({config});
    if (!cell.Build().ok() || !cell.Run(50, 600).ok()) {
      std::cerr << "cell failed\n";
      std::exit(1);
    }
    const CellResult r = cell.result();
    out.push_back(Ranked{std::string(StrategyName(kind)), r.effectiveness,
                         r.hit_ratio});
  }
  std::sort(out.begin(), out.end(), [](const Ranked& a, const Ranked& b) {
    return a.effectiveness > b.effectiveness;
  });
  return out;
}

void PrintRanking(const char* title, const std::vector<Ranked>& ranking) {
  std::cout << title << "\n";
  TablePrinter table({"rank", "strategy", "effectiveness", "hit ratio"});
  int rank = 1;
  for (const Ranked& r : ranking) {
    table.AddRow({std::to_string(rank++), r.name,
                  TablePrinter::Num(r.effectiveness),
                  TablePrinter::Num(r.hit_ratio)});
  }
  table.RenderText(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "Sleepers vs workaholics on the Scenario-1 workload\n\n";
  PrintRanking("Workaholics (s = 0):", RankStrategies(0.0));
  PrintRanking("Heavy sleepers (s = 0.8):", RankStrategies(0.8));

  // A mixed population served by one adaptive server: half the units nap
  // heavily, half barely — the per-item windows settle on a compromise that
  // no single static TS window provides.
  std::cout << "Mixed population under adaptive TS (Method 2):\n";
  CellConfig config;
  config.model.k = 20;
  config.strategy = StrategyKind::kAdaptiveTs;
  config.adaptive.feedback = AdaptiveFeedback::kMethod2;
  config.adaptive.initial_window = 8;
  config.adaptive.eval_period = 8;
  config.adaptive.step = 4;
  config.num_units = 20;
  config.hotspot_size = 20;
  config.seed = 99;
  // Renewal sleep gives a bursty mixed population: long awake runs with
  // occasional long naps.
  config.renewal_sleep = true;
  config.mean_awake_seconds = 120.0;
  config.mean_sleep_seconds = 60.0;
  MegaCell cell({config});
  if (!cell.Build().ok() || !cell.Run(100, 600).ok()) {
    std::cerr << "cell failed\n";
    return 1;
  }
  const CellResult r = cell.result();
  TablePrinter table({"hit ratio", "Bc(bits)", "effectiveness",
                      "measured sleep fraction"});
  table.AddRow({TablePrinter::Num(r.hit_ratio),
                TablePrinter::Num(r.avg_report_bits),
                TablePrinter::Num(r.effectiveness),
                TablePrinter::Num(r.measured_sleep_fraction)});
  table.RenderText(std::cout);
  return 0;
}
