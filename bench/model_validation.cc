// §4 model validation: runs the discrete-event simulator against the
// analytical model on a Scenario-1-shaped cell across strategies and sleep
// probabilities, with several seeds per point to put confidence intervals
// on the measured hit ratio and report size. Also probes model robustness
// by swapping the paper's per-interval Bernoulli sleep process for a
// renewal on/off process with the same effective sleep probability.

#include <iostream>
#include <string>
#include <vector>

#include "analysis/model.h"
#include "exp/megacell.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace mobicache {
namespace {

struct Measured {
  OnlineStats hit;
  OnlineStats bc;
};

Status RunSeeds(const CellConfig& base, uint64_t seeds, uint64_t warmup,
                uint64_t measure, Measured* out) {
  for (uint64_t i = 0; i < seeds; ++i) {
    CellConfig config = base;
    config.seed = base.seed + 7919ULL * (i + 1);
    MegaCell cell({config});
    MOBICACHE_RETURN_IF_ERROR(cell.Build());
    MOBICACHE_RETURN_IF_ERROR(cell.Run(warmup, measure));
    const CellResult r = cell.result();
    out->hit.Add(r.hit_ratio);
    out->bc.Add(r.avg_report_bits);
  }
  return Status::OK();
}

Status Run(uint64_t seeds, uint64_t measure) {
  if (seeds == 0) return Status::InvalidArgument("--seeds must be >= 1");

  ModelParams params;  // Scenario-1 shaped
  params.k = 10;

  std::cout << "Model validation: analytic h/Bc vs simulation "
               "(Scenario-1 shape, k = 10, " << seeds << " seeds, +- is a "
               "95% CI)\n\n";

  TablePrinter table({"strategy", "s", "h.model", "h.sim", "+-", "Bc.model",
                      "Bc.sim", "+-", "e.model", "e.sim"});
  for (StrategyKind kind :
       {StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kSig}) {
    for (double s : {0.0, 0.2, 0.4, 0.6, 0.8}) {
      ModelParams p = params;
      p.s = s;
      StrategyEval model;
      switch (kind) {
        case StrategyKind::kTs:
          model = EvalTs(p);
          break;
        case StrategyKind::kAt:
          model = EvalAt(p);
          break;
        default:
          model = EvalSig(p);
          break;
      }
      CellConfig config;
      config.model = p;
      config.strategy = kind;
      config.num_units = 20;
      config.hotspot_size = 20;
      config.seed = 101;
      Measured m;
      MOBICACHE_RETURN_IF_ERROR(RunSeeds(config, seeds, 50, measure, &m));
      const StrategyEval sim_eval =
          EvalFromMeasurements(p, m.hit.mean(), m.bc.mean());
      table.AddRow({std::string(StrategyName(kind)), TablePrinter::Num(s, 2),
                    TablePrinter::Num(model.hit_ratio),
                    TablePrinter::Num(m.hit.mean()),
                    TablePrinter::Num(m.hit.ConfidenceHalfWidth(), 2),
                    TablePrinter::Num(model.report_bits),
                    TablePrinter::Num(m.bc.mean()),
                    TablePrinter::Num(m.bc.ConfidenceHalfWidth(), 2),
                    TablePrinter::Num(model.effectiveness),
                    TablePrinter::Num(sim_eval.effectiveness)});
    }
  }
  table.RenderText(std::cout);

  std::cout << "\nSleep-process robustness: Bernoulli(s) vs renewal on/off "
               "at matched effective s (AT strategy)\n\n";
  TablePrinter rob({"mean_awake(s)", "mean_sleep(s)", "effective s",
                    "h.model", "h.bernoulli", "h.renewal"});
  for (const auto& [awake, sleep] : std::vector<std::pair<double, double>>{
           {200.0, 20.0}, {100.0, 50.0}, {50.0, 50.0}, {30.0, 90.0}}) {
    CellConfig renewal_config;
    renewal_config.model = params;
    renewal_config.strategy = StrategyKind::kAt;
    renewal_config.num_units = 20;
    renewal_config.hotspot_size = 20;
    renewal_config.renewal_sleep = true;
    renewal_config.mean_awake_seconds = awake;
    renewal_config.mean_sleep_seconds = sleep;
    renewal_config.seed = 33;

    // Matched-s Bernoulli cell.
    RenewalSleepModel probe(params.L, awake, sleep, 1);
    const double eff_s = probe.EffectiveSleepProbability();
    CellConfig bern_config = renewal_config;
    bern_config.renewal_sleep = false;
    bern_config.model.s = eff_s;

    Measured renewal;
    Measured bern;
    MOBICACHE_RETURN_IF_ERROR(
        RunSeeds(renewal_config, seeds, 50, measure, &renewal));
    MOBICACHE_RETURN_IF_ERROR(RunSeeds(bern_config, seeds, 50, measure, &bern));
    ModelParams p = params;
    p.s = eff_s;
    rob.AddRow({TablePrinter::Num(awake, 3), TablePrinter::Num(sleep, 3),
                TablePrinter::Num(eff_s),
                TablePrinter::Num(AtHitRatio(p)),
                TablePrinter::Num(bern.hit.mean()),
                TablePrinter::Num(renewal.hit.mean())});
  }
  rob.RenderText(std::cout);
  std::cout << "\nNote: renewal sleep is burstier than Bernoulli at equal "
               "effective s\n(awake runs cluster), which is why AT, whose "
               "cache dies on any missed\nreport, does noticeably better "
               "under it.\n";
  return Status::OK();
}

}  // namespace
}  // namespace mobicache

int main(int argc, char** argv) {
  using mobicache::Status;
  mobicache::FlagParser flags(
      "model_validation: simulated vs analytic hit ratio and report size "
      "(paper §4) on a\nScenario-1-shaped cell, with confidence intervals "
      "over several seeds.");
  uint64_t seeds = 0;
  uint64_t measure = 0;
  flags.AddUint("seeds", 5, "simulated seeds per point (>= 1)", &seeds);
  flags.AddUint("measure", 400, "measured intervals per run", &measure);
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  if (Status st = mobicache::Run(seeds, measure); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return st.code() == mobicache::StatusCode::kInvalidArgument ? 2 : 1;
  }
  return 0;
}
