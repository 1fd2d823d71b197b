#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "analysis/scenarios.h"

namespace mobicache::perfbench {
namespace {

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void Mix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xffu;
    *h *= 0x100000001b3ULL;
  }
}

// Records `r` into the repetition: its fingerprint, the invariants every
// cell must satisfy, and the counters the per-layer metrics read.
void Harvest(const CellResult& r, uint64_t units, uint64_t warmup,
             uint64_t measure, Repetition* rep) {
  std::string bad;
  if (r.hits + r.misses != r.queries_answered) {
    bad = "hits + misses != queries_answered";
  } else if (r.quiet_skipped_intervals > r.quiet_report_intervals) {
    bad = "quiet_skipped_intervals > quiet_report_intervals";
  }
  if (!bad.empty()) {
    ++rep->failed_cells;
    rep->failures.push_back("cell " + std::to_string(rep->fingerprints.size()) +
                            ": " + bad);
    rep->fingerprints.push_back(0);
    return;
  }
  rep->fingerprints.push_back(CellFingerprint(r));
  Accounts& a = rep->acc;
  a.sim_events += r.sim_events;
  a.updates_applied += r.updates_applied;
  a.hits += r.hits;
  a.misses += r.misses;
  a.reports_broadcast += r.reports_broadcast;
  a.reports_heard += r.reports_heard;
  a.quiet_report_intervals += r.quiet_report_intervals;
  a.quiet_skipped_intervals += r.quiet_skipped_intervals;
  a.items_invalidated += r.items_invalidated;
  a.report_bits_sum += r.avg_report_bits;
  a.sleep_fraction_sum += r.measured_sleep_fraction;
  a.channel_report_bits += r.channel.report_bits;
  a.channel_uplink_queries += r.channel.uplink_query_count;
  a.channel_busy_s += r.channel.busy_seconds;
  const double awake = 1.0 - r.measured_sleep_fraction;
  const double u = static_cast<double>(units);
  a.awake_unit_intervals +=
      u * static_cast<double>(warmup + measure) * awake;
}

// The §4 model predicts TS and AT hit ratios up to s = 0.6 (EXPERIMENTS §4
// model validation); SIG deviates by design once more than f items change.
bool ModelHolds(StrategyKind kind, double s) {
  return (kind == StrategyKind::kTs || kind == StrategyKind::kAt) &&
         s <= 0.6 + 1e-9;
}

// Measured and model hit ratios agree to within 0.005 on every workload
// cell and seed tried; 0.03 fails only a simulation that is actually wrong.
constexpr double kModelTolerance = 0.03;

void CheckModel(double err, Repetition* rep) {
  if (err <= kModelTolerance) return;
  ++rep->failed_cells;
  rep->failures.push_back("cell " + std::to_string(rep->fingerprints.size() - 1) +
                          ": |h - model h| = " + std::to_string(err) +
                          " exceeds " + std::to_string(kModelTolerance));
}

void Fail(const std::string& what, const Status& s, Repetition* rep) {
  ++rep->failed_cells;
  rep->failures.push_back(what + ": " + s.ToString());
  rep->fingerprints.push_back(0);
}

Repetition RunCell(const Workload& w, uint64_t seed, uint64_t (*allocs)()) {
  Repetition rep;
  rep.cells = 1;
  MegaCellConfig config = CellConfigFor(w, seed);
  const ModelParams params = config.cell.model;
  MegaCell cell(std::move(config));
  const auto t0 = std::chrono::steady_clock::now();
  Status s = cell.Build();
  rep.setup_s = Since(t0);
  if (!s.ok()) {
    Fail("Build", s, &rep);
    return rep;
  }
  const uint64_t allocs0 = allocs();
  const auto t1 = std::chrono::steady_clock::now();
  s = cell.Run(w.warmup, w.measure);
  rep.run_s = Since(t1);
  rep.heap_allocs = allocs() - allocs0;
  if (!s.ok()) {
    Fail("Run", s, &rep);
    return rep;
  }
  const CellResult r = cell.result();
  Harvest(r, w.units, w.warmup, w.measure, &rep);
  rep.model_err_h =
      std::fabs(r.hit_ratio - EvalStrategyModel(w.strategy, params).hit_ratio);
  if (ModelHolds(w.strategy, params.s)) CheckModel(rep.model_err_h, &rep);

  Accounts& a = rep.acc;
  a.server_s = cell.server_wall_seconds();
  a.shard_phase_s = cell.shard_phase_wall_seconds();
  a.replay_s = cell.replay_wall_seconds();
  a.replay_records = cell.replay_records();
  a.update_s = cell.update_wall_seconds();
  for (const MegaCellShardStats& lane : cell.shard_stats()) {
    a.lane_walls.push_back(lane.wall_seconds);
  }
  a.cell_wall_sum = rep.run_s;
  a.journal_bytes_peak = cell.db()->journal_bytes_peak();
  a.skipped_dispatches = cell.server()->skipped_dispatches();
  a.unit_intervals =
      static_cast<double>(w.units) * static_cast<double>(w.warmup + w.measure);
  a.run_over_measured = static_cast<double>(w.warmup + w.measure) /
                        static_cast<double>(w.measure);
  return rep;
}

Repetition RunSweep(const Workload& w, uint64_t seed, uint64_t (*allocs)()) {
  Repetition rep;
  rep.setup_s = MeasureSetup(w, seed);

  const uint64_t allocs0 = allocs();
  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<SweepResult> swept =
      RunScenarioSweep(PaperScenario::kScenario1, SweepKinds(),
                       SweepOptionsFor(w, seed));
  rep.run_s = Since(t0);
  rep.heap_allocs = allocs() - allocs0;
  if (!swept.ok()) {
    // A failed sweep reports no grid; count every cell it would have run.
    const size_t cells = SweepCellConfigs(w, seed).size();
    for (size_t i = 0; i < cells; ++i) Fail("sweep", swept.status(), &rep);
    rep.cells = cells;
    return rep;
  }
  const SweepResult& result = swept.value();
  rep.cells = result.cell_timings.size();
  for (const StrategySeries& series : result.series) {
    for (size_t i = 0; i < series.measured.size(); ++i) {
      if (!series.measured[i].has_value()) continue;
      const CellResult& r = *series.measured[i];
      Harvest(r, w.units, w.warmup, w.measure, &rep);
      if (ModelHolds(series.kind, result.xs[i])) {
        const double err =
            std::fabs(r.hit_ratio - series.analytic[i].hit_ratio);
        rep.model_err_h = std::max(rep.model_err_h, err);
        CheckModel(err, &rep);
      }
    }
  }
  if (rep.fingerprints.size() != rep.cells) {
    rep.failures.push_back("sweep returned " +
                           std::to_string(rep.fingerprints.size()) +
                           " results for " + std::to_string(rep.cells) +
                           " cells");
    rep.failed_cells = rep.cells;
  }

  Accounts& a = rep.acc;
  for (const SweepResult::CellTiming& t : result.cell_timings) {
    a.server_s += t.server_seconds;
    a.shard_phase_s += t.shard_seconds;
    a.replay_s += t.replay_seconds;
    a.replay_records += t.replay_records;
    a.update_s += t.update_seconds;
    a.lane_walls.push_back(t.shard_seconds);
    a.cell_wall_sum += t.wall_seconds;
    a.journal_bytes_peak = std::max(a.journal_bytes_peak, t.journal_bytes_peak);
  }
  a.unit_intervals = static_cast<double>(rep.cells) *
                     static_cast<double>(w.units) *
                     static_cast<double>(w.warmup + w.measure);
  a.run_over_measured = static_cast<double>(w.warmup + w.measure) /
                        static_cast<double>(w.measure);
  return rep;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  // Sizes keep one repetition near 3 s on a 2 GHz 4-core host, so a 30-s
  // run takes about ten and its medians ride out bursts of host noise. The
  // single-cell populations are large enough that per-unit work dominates.
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> all;
    Workload fig3;
    fig3.name = "fig3_sweep";
    fig3.sweep = true;
    fig3.units = 20;
    fig3.hotspot = 20;
    fig3.shards = 2;
    fig3.warmup = 50;
    fig3.measure = 6000;
    all.push_back(fig3);

    Workload ts;
    ts.name = "workaholics_ts";
    ts.strategy = StrategyKind::kTs;
    ts.units = 50000;
    ts.s = 0.1;
    ts.n = 1000;
    ts.mu = 1e-3;
    ts.shards = 2;
    ts.warmup = 20;
    ts.measure = 60;
    all.push_back(ts);

    Workload sig;
    sig.name = "sleepers_sig";
    sig.strategy = StrategyKind::kSig;
    sig.units = 25000;
    sig.s = 0.9;
    sig.n = 1000;
    sig.mu = 1e-4;
    sig.shards = 2;
    sig.warmup = 50;
    sig.measure = 60;
    all.push_back(sig);

    Workload at;
    at.name = "update_storm_at";
    at.strategy = StrategyKind::kAt;
    at.units = 1000;
    at.s = 0.5;
    at.n = 1000000;
    at.mu = 0.01;
    at.shards = 1;
    at.warmup = 20;
    at.measure = 180;
    all.push_back(at);
    return all;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

MegaCellConfig CellConfigFor(const Workload& w, uint64_t seed) {
  MegaCellConfig mc;
  CellConfig& c = mc.cell;
  // Every single-cell workload queries at lambda = 0.1 per hot-spot item
  // over a 1 Mb/s channel; they differ in s, n, mu and strategy.
  c.model.lambda = 0.1;
  c.model.mu = w.mu;
  c.model.s = w.s;
  c.model.n = w.n;
  c.model.W = 1e6;
  c.strategy = w.strategy;
  c.num_units = w.units;
  c.hotspot_size = w.hotspot;
  // Each unit draws its own hot spot. With one shared hot spot every unit
  // holds the same signature view and revalidates the same items, so the
  // per-unit cost (and a SIG cell's memory) follows a single random draw
  // and moves by ~10% from seed to seed; independent hot spots average it
  // over the population.
  c.shared_hotspot = false;
  c.seed = seed;
  mc.num_shards = w.shards;
  return mc;
}

SweepOptions SweepOptionsFor(const Workload& w, uint64_t seed) {
  SweepOptions o;
  o.points = 11;
  o.warmup_intervals = w.warmup;
  o.measure_intervals = w.measure;
  o.num_units = w.units;
  o.hotspot_size = w.hotspot;
  o.seed = seed;
  o.threads = static_cast<int>(w.shards);
  o.shards = 1;
  return o;
}

const std::vector<StrategyKind>& SweepKinds() {
  static const std::vector<StrategyKind> kKinds = {
      StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kSig,
      StrategyKind::kNoCache};
  return kKinds;
}

std::vector<CellConfig> SweepCellConfigs(const Workload& w, uint64_t seed) {
  // Mirrors RunScenarioSweep's grid: x_i spans the scenario's range, each
  // feasible (strategy, point) cell is seeded from its grid position.
  const SweepOptions o = SweepOptionsFor(w, seed);
  const ScenarioSweep spec = ScenarioSweepSpec(PaperScenario::kScenario1);
  std::vector<CellConfig> cells;
  for (StrategyKind kind : SweepKinds()) {
    for (int i = 0; i < o.points; ++i) {
      ModelParams params = ScenarioParams(PaperScenario::kScenario1);
      params.s = spec.lo + (spec.hi - spec.lo) * static_cast<double>(i) /
                               static_cast<double>(o.points - 1);
      if (!EvalStrategyModel(kind, params).feasible) continue;
      CellConfig c;
      c.model = params;
      c.strategy = kind;
      c.num_units = o.num_units;
      c.hotspot_size = o.hotspot_size;
      c.seed = o.seed + 1000003ULL * static_cast<uint64_t>(i) +
               7919ULL * static_cast<uint64_t>(kind);
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

uint64_t CellFingerprint(const CellResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t v :
       {r.queries_answered, r.hits, r.misses, r.reports_broadcast,
        r.reports_heard, r.reports_missed, r.quiet_report_intervals,
        r.quiet_skipped_intervals, r.items_invalidated, r.updates_applied,
        r.channel.report_bits, r.channel.uplink_query_bits,
        r.channel.downlink_answer_bits, r.channel.report_count,
        r.channel.uplink_query_count, r.channel.downlink_answer_count}) {
    Mix(&h, v);
  }
  return h;
}

double MeasureSetup(const Workload& w, uint64_t seed) {
  // The sweep builds its cells inside the call; its set-up is measured by
  // building the same cells here, one at a time. A failed Build() shows up
  // again, and is counted, in the engine call itself.
  std::vector<CellConfig> configs;
  if (w.sweep) {
    configs = SweepCellConfigs(w, seed);
  } else {
    configs.push_back(CellConfigFor(w, seed).cell);
  }
  double seconds = 0.0;
  for (CellConfig& config : configs) {
    MegaCellConfig mc;
    mc.cell = std::move(config);
    mc.num_shards = w.sweep ? 1 : w.shards;
    MegaCell cell(std::move(mc));
    const auto t0 = std::chrono::steady_clock::now();
    (void)cell.Build();
    seconds += Since(t0);
  }
  return seconds;
}

Repetition RunRepetition(const Workload& w, uint64_t seed,
                         uint64_t (*allocs)()) {
  return w.sweep ? RunSweep(w, seed, allocs) : RunCell(w, seed, allocs);
}

std::vector<uint64_t> RerunSweepCells(const Workload& w, uint64_t seed,
                                      uint64_t* skipped_dispatches) {
  std::vector<uint64_t> fingerprints;
  *skipped_dispatches = 0;
  for (const CellConfig& config : SweepCellConfigs(w, seed)) {
    MegaCellConfig mc;
    mc.cell = config;
    MegaCell cell(std::move(mc));
    Status s = cell.Build();
    if (s.ok()) s = cell.Run(w.warmup, w.measure);
    fingerprints.push_back(s.ok() ? CellFingerprint(cell.result()) : 0);
    if (s.ok()) *skipped_dispatches += cell.server()->skipped_dispatches();
  }
  return fingerprints;
}

}  // namespace mobicache::perfbench
