// Reproduces the two asymptotic-analysis tables of §5:
//
//  Table A: limits of q0, p0 and the hit ratios as s -> 0 (workaholics) and
//           s -> 1 (sleepers), shown as numeric convergence of the exact
//           formulas next to the paper's closed-form limits.
//  Table B: hit-ratio behaviour as u0 -> 1 (infrequent updates), where TS
//           approaches 1 - s^k, AT approaches (1-p0)/(1-q0), and SIG
//           approaches p_nf (1-p0)/(1-p0).
//
// The qualitative §5 conclusions are printed and checked at the end:
// workaholics -> AT wins; sleepers -> TS/SIG over AT, eventually no-caching.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "analysis/model.h"
#include "analysis/scenarios.h"
#include "util/table.h"

namespace mobicache {
namespace {

int Run() {
  ModelParams base = ScenarioParams(PaperScenario::kScenario1);
  base.k = 10;  // make the s^k terms visible at double precision

  std::cout << "S5 Table A: limits as s -> 0 and s -> 1 "
               "(lambda L = 1, mu L = 1e-3, k = 10)\n\n";
  {
    TablePrinter table({"parameter", "paper s->0", "exact s=1e-6",
                        "paper s->1", "exact s=1-1e-6"});
    auto at = [&](double s) {
      ModelParams p = base;
      p.s = s;
      return p;
    };
    const ModelParams p0m = at(1e-6), p1m = at(1.0 - 1e-6);
    const IntervalProbabilities a = ComputeIntervalProbabilities(p0m);
    const IntervalProbabilities b = ComputeIntervalProbabilities(p1m);
    const double el = std::exp(-base.lambda * base.L);

    table.AddRow({"q0", TablePrinter::Num(el), TablePrinter::Num(a.q0),
                  "0", TablePrinter::Num(b.q0)});
    table.AddRow({"p0", TablePrinter::Num(el), TablePrinter::Num(a.p0),
                  "1", TablePrinter::Num(b.p0)});
    // The paper's s->0 limit for all hit ratios: (1 - e^{-lambda L}) e^{-mu L}
    // (it drops the common denominator); the exact formulas keep it.
    const double paper_limit = (1.0 - el) * std::exp(-base.mu * base.L);
    table.AddRow({"h_TS", TablePrinter::Num(paper_limit) + " (approx)",
                  TablePrinter::Num(TsHitRatioBounds(p0m).mid()), "0",
                  TablePrinter::Num(TsHitRatioBounds(p1m).mid())});
    table.AddRow({"h_AT", TablePrinter::Num(paper_limit) + " (approx)",
                  TablePrinter::Num(AtHitRatio(p0m)), "0",
                  TablePrinter::Num(AtHitRatio(p1m))});
    table.AddRow({"h_SIG",
                  TablePrinter::Num(paper_limit) + " * pnf (approx)",
                  TablePrinter::Num(SigHitRatio(p0m)), "0",
                  TablePrinter::Num(SigHitRatio(p1m))});
    table.RenderText(std::cout);
  }

  std::cout << "\nS5 Table B: behaviour as u0 -> 1 (mu -> 0), s = 0.5, "
               "k = 10\n\n";
  {
    TablePrinter table({"parameter", "paper u0->1", "exact mu=1e-9"});
    ModelParams p = base;
    p.s = 0.5;
    p.mu = 1e-9;
    const IntervalProbabilities pr = ComputeIntervalProbabilities(p);
    const double sk = std::pow(p.s, static_cast<double>(p.k));
    table.AddRow({"h_TS (1 - s^k band)",
                  TablePrinter::Num(1.0 - sk) + " .. " +
                      TablePrinter::Num(1.0 - sk * p.s),
                  TablePrinter::Num(TsHitRatioBounds(p).mid())});
    table.AddRow({"h_AT ((1-p0)/(1-q0))",
                  TablePrinter::Num((1.0 - pr.p0) / (1.0 - pr.q0)),
                  TablePrinter::Num(AtHitRatio(p))});
    table.AddRow({"h_SIG (pnf (1-p0)/(1-p0 u0))",
                  TablePrinter::Num(SigNoFalseAlarmProbability(p) *
                                    (1.0 - pr.p0) / (1.0 - pr.p0)),
                  TablePrinter::Num(SigHitRatio(p))});
    table.RenderText(std::cout);
  }

  std::cout << "\nS5 conclusions (checked numerically on Scenario 1 "
               "parameters):\n";
  {
    ModelParams p = ScenarioParams(PaperScenario::kScenario1);
    p.s = 0.0;
    const bool c1 = EvalAt(p).effectiveness > EvalTs(p).effectiveness &&
                    EvalAt(p).effectiveness > EvalSig(p).effectiveness;
    std::printf("  workaholics (s=0): AT wins in throughput        %s\n",
                c1 ? "[confirmed]" : "[VIOLATED]");
    p.s = 0.6;
    const bool c2 = EvalTs(p).effectiveness > EvalAt(p).effectiveness &&
                    EvalSig(p).effectiveness > EvalAt(p).effectiveness;
    std::printf("  sleepers (s=0.6): TS and SIG outperform AT      %s\n",
                c2 ? "[confirmed]" : "[VIOLATED]");
    ModelParams q = ScenarioParams(PaperScenario::kScenario3);
    q.s = 0.95;
    const bool c3 =
        EvalNoCache(q).effectiveness > EvalAt(q).effectiveness &&
        EvalNoCache(q).effectiveness > EvalSig(q).effectiveness;
    std::printf("  heavy sleepers + updates: no-caching wins        %s\n",
                c3 ? "[confirmed]" : "[VIOLATED]");
    ModelParams r1 = ScenarioParams(PaperScenario::kScenario5);
    ModelParams r2 = r1;
    r2.mu = 2e-4;
    const bool c4 = EvalTs(r2).effectiveness < EvalTs(r1).effectiveness;
    std::printf("  TS loses ground as the update rate grows        %s\n",
                c4 ? "[confirmed]" : "[VIOLATED]");
    if (!(c1 && c2 && c3 && c4)) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mobicache

int main(int argc, char** argv) {
  mobicache::ParseNoFlags(
      argc, argv,
      "the asymptotic-analysis tables of paper §5.");
  return mobicache::Run();
}
