#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/cache.h"
#include "db/database.h"
#include "db/update_generator.h"
#include "exp/strategy_factory.h"
#include "mu/hotspot.h"
#include "sig/signature.h"
#include "sim/simulator.h"
#include "util/merge.h"
#include "util/random.h"

namespace mobicache::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBatches = 5;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double NsPerOp(double seconds, double ops) {
  return ops > 0.0 ? 1e9 * seconds / ops : 0.0;
}

CellConfig Normalized(CellConfig config) {
  // The workload configurations are valid by construction; a failure here
  // would surface as a failed Build() in the timed run too.
  (void)NormalizeCellConfig(&config);
  return config;
}

// One unit's hot spot, drawn the way a cell with independent hot spots
// draws it (a shared one is the contiguous block at item 0).
std::vector<ItemId> ProbeHotSpot(const CellConfig& cc) {
  if (cc.shared_hotspot) return ContiguousHotSpot(cc.model.n, 0, cc.hotspot_size);
  Rng rng(cc.seed);
  return RandomHotSpot(cc.model.n, cc.hotspot_size, rng);
}

struct TimedReport {
  SimTime time = 0.0;
  Report report;
};

// Server side: per interval, drains the updates and builds the report in
// Server::Broadcast's order, with one window query over the interval timed
// between them. Keeps the first timed reports for the client probe.
void ProbeServer(const CellConfig& cc, ProbeResult* out,
                 std::vector<TimedReport>* kept) {
  const ModelParams& m = cc.model;
  uint64_t seed_state = cc.seed;
  Simulator sim;
  Database db(m.n, SplitMix64(&seed_state));
  std::unique_ptr<SignatureFamily> family =
      MakeSignatureFamilyForCell(cc, SplitMix64(&seed_state));
  StrategyFactoryContext ctx;
  ctx.config = &cc;
  ctx.sizes = ComputeMessageSizes(m);
  ctx.db = &db;
  ctx.family = family.get();
  std::unique_ptr<ServerStrategy> strategy = MakeServerStrategy(ctx);
  db.SetJournalBucketWidth(m.L);
  db.SetRetention(strategy->retention());
  strategy->AttachUpdateFeed(&db);
  UpdateGenerator gen(&sim, &db, m.mu, SplitMix64(&seed_state));
  gen.EnableBatchMode();
  if (!gen.Start().ok()) return;

  const double per_interval = static_cast<double>(m.n) * m.mu * m.L;
  const uint64_t warm = std::min<uint64_t>(
      200, static_cast<uint64_t>(strategy->JournalHorizonSeconds() / m.L) + 2);
  const uint64_t per_batch = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(20000.0 / std::max(per_interval, 1e-9))),
      8, 4000);
  const SimTime horizon = strategy->JournalHorizonSeconds() + 2.0 * m.L;

  Report report;
  std::vector<UpdatedItem> window;
  std::vector<double> apply_ns, query_ns, build_ns;
  uint64_t interval = 0;
  auto step = [&](double* apply_s, double* query_s, double* build_s) {
    ++interval;
    const SimTime now = m.L * static_cast<double>(interval);
    const auto t0 = Clock::now();
    gen.GenerateIntervalUpdates(now, /*inclusive=*/false);
    const auto t1 = Clock::now();
    db.UpdatedIn(now - m.L, now, &window);
    const auto t2 = Clock::now();
    strategy->BuildReportInto(now, interval, &report);
    const auto t3 = Clock::now();
    *apply_s += Seconds(t0, t1);
    *query_s += Seconds(t1, t2);
    *build_s += Seconds(t2, t3);
    if (interval % 8 == 0 && now > horizon) db.PruneJournalBefore(now - horizon);
    if (kept->size() < 32 && interval > warm) {
      kept->push_back(TimedReport{now, report});
    }
  };
  double ignored[3] = {0.0, 0.0, 0.0};
  for (uint64_t i = 0; i < warm; ++i) step(&ignored[0], &ignored[1], &ignored[2]);
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t updates0 = gen.updates_generated();
    double apply_s = 0.0, query_s = 0.0, build_s = 0.0;
    for (uint64_t i = 0; i < per_batch; ++i) step(&apply_s, &query_s, &build_s);
    const double updates =
        static_cast<double>(gen.updates_generated() - updates0);
    apply_ns.push_back(NsPerOp(apply_s, updates));
    query_ns.push_back(NsPerOp(query_s, static_cast<double>(per_batch)));
    build_ns.push_back(NsPerOp(build_s, static_cast<double>(per_batch)));
  }
  out->apply_ns = Median(apply_ns);
  out->window_query_ns = Median(query_ns);
  out->build_report_ns = Median(build_ns);
}

// Client side: one unit's manager revalidating a hot-spot-sized cache
// against consecutive reports; missing items are re-fetched (untimed)
// between reports, as the unit's misses would.
void ProbeClient(const CellConfig& cc, const std::vector<TimedReport>& reports,
                 ProbeResult* out) {
  if (reports.size() < 2) return;
  const ModelParams& m = cc.model;
  uint64_t seed_state = cc.seed;
  (void)SplitMix64(&seed_state);
  std::unique_ptr<SignatureFamily> family =
      MakeSignatureFamilyForCell(cc, SplitMix64(&seed_state));
  StrategyFactoryContext ctx;
  ctx.config = &cc;
  ctx.sizes = ComputeMessageSizes(m);
  ctx.family = family.get();
  const std::vector<ItemId> hotspot = ProbeHotSpot(cc);
  std::vector<double> pass_ns;
  for (int pass = 0; pass < 64; ++pass) {
    std::unique_ptr<ClientCacheManager> manager =
        MakeClientManager(ctx, hotspot);
    ClientCache cache(cc.cache_capacity);
    manager->OnReport(reports[0].report, &cache);
    double seconds = 0.0;
    for (size_t r = 0; r < reports.size(); ++r) {
      for (ItemId id : hotspot) {
        if (!cache.Contains(id)) cache.Put(id, 0, reports[r].time);
      }
      if (r == 0) continue;
      const auto t0 = Clock::now();
      manager->OnReport(reports[r].report, &cache);
      seconds += Seconds(t0, Clock::now());
    }
    pass_ns.push_back(NsPerOp(seconds, static_cast<double>(reports.size() - 1)));
  }
  out->on_report_ns = Median(pass_ns);
}

// Signature layer: the per-unit view a SIG cell builds at set-up, and the
// per-report diagnosis, over the workload's database and hot spot.
void ProbeSignatures(CellConfig cc, ProbeResult* out) {
  cc.strategy = StrategyKind::kSig;
  cc = Normalized(std::move(cc));
  const ModelParams& m = cc.model;
  uint64_t seed_state = cc.seed;
  Database db(m.n, SplitMix64(&seed_state));
  std::unique_ptr<SignatureFamily> family =
      MakeSignatureFamilyForCell(cc, SplitMix64(&seed_state));
  const std::vector<ItemId> hotspot = ProbeHotSpot(cc);

  std::vector<double> build_ns;
  size_t signatures = 0;
  for (int b = 0; b < kBatches; ++b) {
    constexpr int kViews = 200;
    const auto t0 = Clock::now();
    for (int i = 0; i < kViews; ++i) {
      ClientSignatureView view(family.get(), hotspot);
      signatures = view.cached_signature_count();
    }
    build_ns.push_back(NsPerOp(Seconds(t0, Clock::now()), kViews));
  }
  out->view_build_ns = Median(build_ns);
  out->signatures_per_unit = static_cast<double>(signatures);

  ServerSignatureState server(family.get(), &db);
  ClientSignatureView view(family.get(), hotspot);
  view.DiagnoseAndAdopt(server.Combined(), hotspot);
  const uint64_t changes = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::llround(static_cast<double>(m.n) * m.mu * m.L)),
      1, m.f);
  Rng rng(SplitMix64(&seed_state));
  SimTime t = 0.0;
  std::vector<double> diagnose_ns;
  for (int b = 0; b < kBatches; ++b) {
    constexpr int kDiagnoses = 100;
    double seconds = 0.0;
    for (int i = 0; i < kDiagnoses; ++i) {
      for (uint64_t c = 0; c < changes; ++c) {
        const ItemId id = static_cast<ItemId>(rng.NextUint64(m.n));
        t += 0.001;
        db.ApplyUpdate(id, t);
        server.OnItemChanged(id);
      }
      const auto t0 = Clock::now();
      view.DiagnoseAndAdopt(server.Combined(), hotspot);
      seconds += Seconds(t0, Clock::now());
    }
    diagnose_ns.push_back(NsPerOp(seconds, kDiagnoses));
  }
  out->diagnose_ns = Median(diagnose_ns);
}

void ProbeSimulator(ProbeResult* out) {
  Simulator sim;
  uint64_t sink = 0;
  double t = 0.0;
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    constexpr int kRounds = 256;
    constexpr int kEvents = 1024;
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kEvents; ++i) {
        t += 0.25;
        sim.ScheduleAt(t, [&sink] { ++sink; });
      }
      sim.Run();
    }
    ns.push_back(NsPerOp(Seconds(t0, Clock::now()), kRounds * kEvents));
  }
  out->dispatch_ns = sink > 0 ? Median(ns) : 0.0;
}

void ProbeMerge(uint32_t sources, uint64_t seed, ProbeResult* out) {
  const size_t k = std::max<uint32_t>(sources, 1);
  std::vector<std::vector<double>> logs(k);
  Rng rng(seed);
  for (auto& log : logs) {
    log.resize((size_t{1} << 16) / k);
    double t = 0.0;
    // Coarse grid: frequent cross-source ties, like simultaneous interval
    // ticks across shards.
    for (double& key : log) {
      t += 0.01 * static_cast<double>(rng.NextUint64(8));
      key = t;
    }
  }
  LoserTreeMerger merger;
  std::vector<size_t> cursor(k);
  double checksum = 0.0;
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    constexpr int kMerges = 8;
    uint64_t merged = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < kMerges; ++r) {
      cursor.assign(k, 0);
      merger.Reset(k);
      for (size_t s = 0; s < k; ++s) {
        if (!logs[s].empty()) merger.SetHead(s, logs[s][0]);
      }
      merger.Build();
      while (!merger.exhausted()) {
        const size_t s = merger.top();
        checksum += merger.top_key();
        ++merged;
        const size_t next = ++cursor[s];
        merger.Advance(next < logs[s].size() ? logs[s][next]
                                             : LoserTreeMerger::kExhausted);
      }
    }
    ns.push_back(NsPerOp(Seconds(t0, Clock::now()), static_cast<double>(merged)));
  }
  out->merge_ns = checksum > 0.0 ? Median(ns) : 0.0;
}

}  // namespace

ProbeResult RunProbes(const CellConfig& config, uint32_t merge_sources) {
  const CellConfig cc = Normalized(config);
  ProbeResult out;
  std::vector<TimedReport> reports;
  ProbeServer(cc, &out, &reports);
  ProbeClient(cc, reports, &out);
  reports.clear();
  ProbeSignatures(cc, &out);
  ProbeSimulator(&out);
  ProbeMerge(merge_sources, cc.seed, &out);
  return out;
}

}  // namespace mobicache::perfbench
