// Example 2 from the paper's introduction: a navigational database holds a
// map divided into grid sections; each section's item summarizes traffic in
// that area. A traveller's unit displays the 3x3 neighbourhood around its
// current position and refreshes it continuously — a hot spot with strong
// locality. Units nap frequently (parked, traffic lights), which is exactly
// the population TS's windowed reports are designed for.

#include <iostream>
#include <string>

#include "exp/megacell.h"
#include "mu/hotspot.h"
#include "util/random.h"
#include "util/table.h"

int main() {
  using namespace mobicache;

  constexpr uint64_t kWidth = 40, kHeight = 25;  // 1000 map sections
  constexpr uint64_t kUnits = 25;

  // One 3x3 neighbourhood per commuter, centred at a random position.
  Rng position_rng(7);
  std::vector<std::vector<ItemId>> neighbourhoods;
  for (uint64_t u = 0; u < kUnits; ++u) {
    const uint64_t x = 1 + position_rng.NextUint64(kWidth - 2);
    const uint64_t y = 1 + position_rng.NextUint64(kHeight - 2);
    neighbourhoods.push_back(
        GridNeighborhoodHotSpot(kWidth, kHeight, x, y, 1));
  }

  std::cout << "Traffic map (paper Example 2): 3x3 grid neighbourhoods on a "
            << kWidth << "x" << kHeight << " section map\n\n";

  TablePrinter table({"strategy", "hit ratio", "Bc(bits)", "queries",
                      "latency(s)", "effectiveness"});

  for (StrategyKind kind : {StrategyKind::kTs, StrategyKind::kAt,
                            StrategyKind::kSig, StrategyKind::kNoCache}) {
    CellConfig config;
    config.model.n = kWidth * kHeight;
    config.model.lambda = 0.3;  // the display refreshes often
    config.model.mu = 1e-3;     // traffic summaries change now and then
    config.model.L = 10.0;
    config.model.s = 0.5;       // units nap half the intervals
    config.model.k = 12;        // TS window: two minutes of naps survive
    config.model.f = 10;
    config.strategy = kind;
    config.num_units = kUnits;
    config.hotspot_size = 9;
    config.custom_hotspots = neighbourhoods;
    config.seed = 404;

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
    table.AddRow({std::string(StrategyName(kind)),
                  TablePrinter::Num(r.hit_ratio),
                  TablePrinter::Num(r.avg_report_bits),
                  TablePrinter::Int(r.queries_answered),
                  TablePrinter::Num(r.mean_answer_latency, 3),
                  TablePrinter::Num(r.effectiveness)});
  }
  table.RenderText(std::cout);
  std::cout << "\nCommuters nap often (s = 0.5): TS revalidates a waking "
               "unit's 3x3 block from\nthe windowed report, AT has to "
               "re-fetch the whole display after every nap.\n";
  return 0;
}
