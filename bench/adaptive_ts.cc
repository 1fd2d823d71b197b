// §8 ablation — adaptive invalidation reports. The motivating workload mixes
// the two §8 pathologies inside one hot spot:
//
//  * "cold favourites": items that never change but are queried constantly
//    by a sleepy population — static TS keeps dropping them after long naps
//    (uplink waste); the adaptive server should grow their windows.
//  * "churners": items that change every few seconds — static TS reports
//    them endlessly (report waste) although every query misses anyway; the
//    adaptive server should shrink their windows to zero.
//
// Compared: static TS at several window sizes k, adaptive TS with feedback
// Method 1 (piggybacked hit timestamps) and Method 2 (uplink deltas).
// Metric: total channel bits per answered query — the paper's currency —
// plus its report/uplink split and the resulting hit ratio.

#include <iostream>
#include <string>

#include "bench_common.h"
#include "core/adaptive.h"
#include "exp/megacell.h"
#include "util/table.h"

namespace mobicache {
namespace {

constexpr uint64_t kN = 1000;
constexpr uint64_t kHotspot = 20;  // items 0..19: units share this hot spot

// Per-item update rates: the shared hot spot's first half never changes,
// its second half churns; the rest of the database updates slowly.
std::vector<double> WorkloadRates() {
  std::vector<double> rates(kN, 1e-4);
  for (uint64_t i = 0; i < kHotspot / 2; ++i) rates[i] = 0.0;     // favourites
  for (uint64_t i = kHotspot / 2; i < kHotspot; ++i) rates[i] = 0.05;  // churners
  return rates;
}

CellConfig BaseConfig() {
  CellConfig config;
  config.model.n = kN;
  config.model.lambda = 0.1;
  config.model.L = 10.0;
  config.model.s = 0.6;  // sleepers
  config.strategy = StrategyKind::kTs;
  config.num_units = 20;
  config.hotspot_size = kHotspot;
  config.update_rates = WorkloadRates();
  config.seed = 77;
  return config;
}

struct RowResult {
  CellResult cell;
  double bits_per_query = 0.0;
};

struct WindowSnapshot {
  double favourites = 0.0;
  double churners = 0.0;
};

RowResult RunOne(CellConfig config, WindowSnapshot* windows = nullptr) {
  MegaCell cell({config});
  // Long warm-up so the adaptive controller reaches steady state.
  if (!cell.Build().ok() || !cell.Run(1000, 1000).ok()) {
    std::cerr << "cell failed\n";
    std::exit(1);
  }
  if (windows != nullptr) {
    auto* ats =
        dynamic_cast<AdaptiveTsServerStrategy*>(cell.server()->strategy());
    if (ats != nullptr) {
      for (uint64_t i = 0; i < kHotspot / 2; ++i) {
        windows->favourites += static_cast<double>(ats->WindowOf(
                                   static_cast<ItemId>(i))) /
                               (kHotspot / 2.0);
        windows->churners += static_cast<double>(ats->WindowOf(
                                 static_cast<ItemId>(i + kHotspot / 2))) /
                             (kHotspot / 2.0);
      }
    }
  }
  RowResult out;
  out.cell = cell.result();
  out.bits_per_query =
      out.cell.queries_answered == 0
          ? 0.0
          : static_cast<double>(out.cell.channel.total_bits()) /
                static_cast<double>(out.cell.queries_answered);
  return out;
}

void AddRow(TablePrinter& table, const std::string& name, const RowResult& r) {
  table.AddRow({name, TablePrinter::Num(r.cell.hit_ratio),
                TablePrinter::Num(r.cell.avg_report_bits),
                TablePrinter::Int(r.cell.channel.uplink_query_bits),
                TablePrinter::Num(r.bits_per_query, 5)});
}

int Run() {
  std::cout
      << "Adaptive TS (S8): per-item windows vs static TS\n"
         "Workload: 10 never-changing favourites + 10 fast churners in a "
         "shared hot spot,\nsleepy population (s = 0.6), 1000 warm-up + "
         "1000 measured intervals\n\n";

  TablePrinter table({"strategy", "hit ratio", "Bc.sim(bits)",
                      "uplink bits", "bits/query"});

  for (uint64_t k : {4, 16, 64, 256}) {
    CellConfig config = BaseConfig();
    config.model.k = k;
    AddRow(table, "TS k=" + std::to_string(k), RunOne(config));
  }

  for (AdaptiveFeedback feedback :
       {AdaptiveFeedback::kMethod1, AdaptiveFeedback::kMethod2}) {
    CellConfig config = BaseConfig();
    config.strategy = StrategyKind::kAdaptiveTs;
    config.adaptive.initial_window = 16;
    config.adaptive.max_window = 256;
    config.adaptive.eval_period = 8;
    config.adaptive.step = 8;
    config.adaptive.feedback = feedback;
    WindowSnapshot windows;
    AddRow(table,
           feedback == AdaptiveFeedback::kMethod1 ? "ATS method-1"
                                                  : "ATS method-2",
           RunOne(config, &windows));
    std::printf("  (final mean windows: favourites %.0f, churners %.0f)\n",
                windows.favourites, windows.churners);
  }
  table.RenderText(std::cout);

  std::cout
      << "\nReading: static TS picks one window for *all* items; the "
         "adaptive server\nassigns them per item and stops reporting "
         "unqueried items altogether, which\ncuts the report to a fraction "
         "of any static TS while matching the best\nstatically-tuned "
         "bits/query — without knowing the workload in advance.\n"
         "Method 1 estimates per-client hit ratios from piggybacked "
         "timestamps, but at\nthe paper's bT = 512 those piggyback bits "
         "are expensive (visible in the\nuplink column); Method 2 is free "
         "and coarser (its gain hill-climb makes\nwindows wander, costing "
         "some hit ratio). This mirrors the paper's own\ncost ranking of "
         "the two methods.\n";
  return 0;
}

}  // namespace
}  // namespace mobicache

int main(int argc, char** argv) {
  mobicache::ParseNoFlags(
      argc, argv,
      "adaptive invalidation reports (paper §8) against plain TS on a\n"
      "hot spot mixing cold favourites and hot churners.");
  return mobicache::Run();
}
