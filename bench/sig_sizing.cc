// SIG sizing ablation. Two questions the paper's evaluation leaves open:
//
//  1. The design parameter f must cover the number of items that actually
//     change between a client's signature baselines (>= n*mu*L for awake
//     clients). Several paper scenarios size f far below that, which makes
//     the analytic SIG curve unattainable: the simulated scheme
//     over-invalidates and its hit ratio collapses. This bench sweeps f at
//     fixed workload churn and shows the recovery — and the report-size
//     price (m grows linearly with f).
//
//  2. The operating threshold K: the Chernoff sizing uses K = 2, but
//     detection of genuinely changed items needs K < 1/(1 - 1/e) ~ 1.58;
//     low K raises false alarms, high K lets stale items survive (false
//     valids). Swept here with measured false-valid rates.

#include <iostream>

#include "bench_common.h"
#include "analysis/model.h"
#include "exp/megacell.h"
#include "sig/signature.h"
#include "util/table.h"

namespace mobicache {
namespace {

CellConfig BaseConfig() {
  CellConfig config;
  config.model.n = 1000;
  config.model.lambda = 0.1;
  config.model.mu = 2e-3;  // ~20 changed items per interval
  config.model.L = 10.0;
  config.model.s = 0.3;
  config.strategy = StrategyKind::kSig;
  config.num_units = 20;
  config.hotspot_size = 20;
  config.seed = 111;
  return config;
}

struct Audit {
  CellResult cell;
  uint64_t false_valids = 0;
  uint64_t hits = 0;
};

Audit RunAudited(const CellConfig& config) {
  MegaCell cell({config});
  if (!cell.Build().ok()) {
    std::cerr << "build failed\n";
    std::exit(1);
  }
  Audit audit;
  Database* db = cell.db();
  auto* counts = &audit;
  for (MobileUnit* unit : cell.units()) {
    unit->SetAnswerObserver([counts, db](ItemId id, uint64_t value,
                                         SimTime validity_ts, bool hit) {
      if (!hit) return;
      ++counts->hits;
      if (value != db->ValueAt(id, validity_ts)) ++counts->false_valids;
    });
  }
  if (!cell.Run(30, 300).ok()) {
    std::cerr << "run failed\n";
    std::exit(1);
  }
  audit.cell = cell.result();
  return audit;
}

int Run() {
  std::cout << "SIG sizing ablation (n = 1000, mu = 2e-3 -> ~20 changes per "
               "interval, s = 0.3)\n\n";

  {
    std::cout << "(1) Sweeping the design difference count f "
                 "(m = 6(f+1)(ln(1/delta)+ln n), K = 1.25)\n\n";
    TablePrinter table({"f", "m", "Bc(bits)", "hit ratio", "false-valid %",
                        "e.sim"});
    for (uint32_t f : {2, 5, 10, 20, 40, 80}) {
      CellConfig config = BaseConfig();
      config.model.f = f;
      const Audit a = RunAudited(config);
      const uint32_t m = SigSignatureCount(config.model);
      table.AddRow(
          {TablePrinter::Int(f), TablePrinter::Int(m),
           TablePrinter::Num(a.cell.avg_report_bits),
           TablePrinter::Num(a.cell.hit_ratio),
           TablePrinter::Num(a.hits == 0 ? 0.0
                                         : 100.0 *
                                               static_cast<double>(
                                                   a.false_valids) /
                                               static_cast<double>(a.hits),
                             3),
           TablePrinter::Num(a.cell.effectiveness)});
    }
    table.RenderText(std::cout);
    std::cout << "\nf below the per-interval churn (~20) floods the "
                 "syndrome with mismatches and\nthe hit ratio collapses — "
                 "this is why the paper's Scenario 2/4 SIG curves are\n"
                 "analytic idealizations (see EXPERIMENTS.md).\n\n";
  }

  {
    std::cout << "(2) Sweeping the operating threshold K (f = 40)\n\n";
    TablePrinter table(
        {"K", "hit ratio", "false-valid %", "invalidations/report"});
    for (double k_threshold : {1.05, 1.25, 1.45, 1.58, 1.80}) {
      CellConfig config = BaseConfig();
      config.model.f = 40;
      config.sig_k_threshold = k_threshold;
      const Audit a = RunAudited(config);
      const double inv_per_report =
          a.cell.reports_broadcast == 0
              ? 0.0
              : static_cast<double>(a.cell.items_invalidated) /
                    static_cast<double>(a.cell.reports_broadcast);
      table.AddRow(
          {TablePrinter::Num(k_threshold, 3),
           TablePrinter::Num(a.cell.hit_ratio),
           TablePrinter::Num(a.hits == 0 ? 0.0
                                         : 100.0 *
                                               static_cast<double>(
                                                   a.false_valids) /
                                               static_cast<double>(a.hits),
                             3),
           TablePrinter::Num(inv_per_report, 4)});
    }
    table.RenderText(std::cout);
    std::cout << "\nK > ~1.58 pushes the threshold above the expected "
                 "syndrome count of a\ngenuinely changed item: stale copies "
                 "start surviving (false valids), the one\nerror class the "
                 "paper's schemes are supposed to avoid.\n\n";
  }

  {
    std::cout << "(3) Extension: per-item threshold (count > gamma * "
                 "|subsets of i|) vs the\n    paper's global K*p*m "
                 "(f = 40)\n\n";
    TablePrinter table({"rule", "hit ratio", "false-valid %",
                        "invalidations/report"});
    struct Case {
      const char* name;
      bool per_item;
      double gamma;
      double k;
    };
    const Case cases[] = {
        {"global K=1.25", false, 0.0, 1.25},
        {"per-item gamma=0.70", true, 0.70, 1.25},
        {"per-item gamma=0.80", true, 0.80, 1.25},
        {"per-item gamma=0.90", true, 0.90, 1.25},
    };
    for (const Case& c : cases) {
      CellConfig config = BaseConfig();
      config.model.f = 40;
      config.sig_k_threshold = c.k;
      config.sig_per_item_threshold = c.per_item;
      config.sig_gamma = c.gamma;
      const Audit a = RunAudited(config);
      const double inv_per_report =
          a.cell.reports_broadcast == 0
              ? 0.0
              : static_cast<double>(a.cell.items_invalidated) /
                    static_cast<double>(a.cell.reports_broadcast);
      table.AddRow(
          {c.name, TablePrinter::Num(a.cell.hit_ratio),
           TablePrinter::Num(a.hits == 0 ? 0.0
                                         : 100.0 *
                                               static_cast<double>(
                                                   a.false_valids) /
                                               static_cast<double>(a.hits),
                             3),
           TablePrinter::Num(inv_per_report, 4)});
    }
    table.RenderText(std::cout);
    std::cout << "\nThe per-item rule exploits what the client already "
                 "knows (each item's exact\nsubset count): a changed item "
                 "mismatches ~all of its subsets, a valid one only\n"
                 "~63%, so a gamma between those separates cleanly and the "
                 "binomial-tail\nfalse-valids of the global rule disappear.\n";
  }
  return 0;
}

}  // namespace
}  // namespace mobicache

int main(int argc, char** argv) {
  mobicache::ParseNoFlags(
      argc, argv,
      "SIG sizing: the design parameter f against the changes between\n"
      "baselines, and the threshold rule.");
  return mobicache::Run();
}
