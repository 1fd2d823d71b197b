// Google-benchmark micro-benchmarks for the hot paths: the event loop,
// signature computation and maintenance, report building and client
// application, and the client cache. Run with --benchmark_filter=... as
// usual; emit the machine-readable record the perf trajectory tracks with
//   micro_ops --benchmark_out=BENCH_micro_ops.json --benchmark_out_format=json

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/at.h"
#include "core/cache.h"
#include "core/sig_strategy.h"
#include "core/ts.h"
#include "db/database.h"
#include "db/update_generator.h"
#include "mu/hotspot.h"
#include "sig/signature.h"
#include "sim/simulator.h"
#include "util/merge.h"
#include "util/random.h"
#include "util/simd.h"

namespace mobicache {
namespace {

// Event-loop guard: schedule-then-dispatch throughput of the simulator when
// every event has a time of its own — the calendar scheduler's worst case,
// one one-id bucket and one index sift per event. A regression here (e.g.
// reintroducing a per-event side-table lookup or allocation) slows every
// simulated cell in bench/.
void BM_SimulatorScheduleDispatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Simulator sim;
  double t = 0.0;
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      t += 0.25;
      sim.ScheduleAt(t, [&sink] { ++sink; });
    }
    sim.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_SimulatorScheduleDispatch)->Arg(16)->Arg(1024)->Arg(65536);

// Cancellation guard: half the scheduled events are cancelled before the
// run, exercising the O(1) tombstone path plus lazy removal at dispatch.
void BM_SimulatorScheduleCancel(benchmark::State& state) {
  const int batch = 1024;
  Simulator sim;
  double t = 0.0;
  uint64_t sink = 0;
  std::vector<EventId> ids;
  ids.reserve(batch);
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < batch; ++i) {
      t += 0.25;
      ids.push_back(sim.ScheduleAt(t, [&sink] { ++sink; }));
    }
    for (int i = 0; i < batch; i += 2) sim.Cancel(ids[i]);
    sim.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_SimulatorScheduleCancel);

// Tick-wave guard: the queue shape the cell engines produce. Arg units each
// keep one pending tick on an interval boundary (L = 1, so boundary times
// are exact integers and equal ticks share one double); a fired tick
// reschedules at the next boundary, or one time in 16 naps 2..64 boundaries
// ahead. Every dispatch wave is therefore same-time, and the queue spans up
// to 64 distinct future boundaries. One iteration runs one interval.
struct TickWave {
  Simulator sim;
  Rng rng{3};
  void Arm(SimTime when) {
    sim.ScheduleAt(when, [this] {
      const uint64_t draw = rng.NextUint64(16 * 63);
      const uint64_t ahead = draw < 15 * 63 ? 1 : 2 + draw % 63;
      Arm(sim.Now() + static_cast<double>(ahead));
    });
  }
};

void BM_SimulatorTickWave(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  TickWave wave;
  wave.sim.Reserve(static_cast<size_t>(units) + 1024);
  for (int i = 0; i < units; ++i) wave.Arm(1.0);
  double t = 0.0;
  for (int warm = 0; warm < 128; ++warm) wave.sim.RunUntil(t += 1.0);
  const uint64_t before = wave.sim.DispatchedEvents();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wave.sim.RunUntil(t += 1.0));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(wave.sim.DispatchedEvents() - before));
}
BENCHMARK(BM_SimulatorTickWave)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ItemSignature(benchmark::State& state) {
  SignatureParams params;
  params.m = 1000;
  params.f = 10;
  params.g = 16;
  SignatureFamily family(1000, params, 1);
  uint64_t v = 0x1234;
  for (auto _ : state) {
    v = family.ItemSignature(v);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ItemSignature);

// Cold path: every call regenerates the geometric membership stream (what
// SubsetsOf used to cost on *every* update fold and report diagnosis).
void BM_SubsetsOfCold(benchmark::State& state) {
  SignatureParams params;
  params.m = static_cast<uint32_t>(state.range(0));
  params.f = 10;
  params.g = 16;
  SignatureFamily family(1u << 20, params, 1);
  ItemId id = 0;
  for (auto _ : state) {
    auto subsets = family.ComputeSubsetsOf(id++);
    benchmark::DoNotOptimize(subsets);
  }
}
BENCHMARK(BM_SubsetsOfCold)->Arg(1000)->Arg(10000)->Arg(100000);

// Row-table path: one cached item's mismatch count as diagnosis issues it,
// over a small working set of filled membership rows — the row lookup plus
// popcount(mismatch AND row) through the dispatched kernel.
void BM_MembershipRowCount(benchmark::State& state) {
  SignatureParams params;
  params.m = static_cast<uint32_t>(state.range(0));
  params.f = 10;
  params.g = 16;
  SignatureFamily family(1u << 20, params, 1);
  for (ItemId i = 0; i < 256; ++i) {
    benchmark::DoNotOptimize(family.MembershipRow(i));  // builds the rows
  }
  uint64_t seed_state = 3;
  std::vector<uint64_t> mismatch(family.row_words());
  for (uint64_t& word : mismatch) {
    word = SplitMix64(&seed_state) & SplitMix64(&seed_state);
  }
  ItemId id = 0;
  for (auto _ : state) {
    const uint64_t* row = family.MembershipRow(id);
    id = (id + 1) % 256;
    benchmark::DoNotOptimize(
        simd::AndPopcount(mismatch.data(), row, family.row_words()));
  }
}
BENCHMARK(BM_MembershipRowCount)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ServerSignatureFold(benchmark::State& state) {
  Database db(100000, 1);
  SignatureParams params;
  params.m = 2000;
  params.f = 10;
  params.g = 16;
  SignatureFamily family(100000, params, 1);
  ServerSignatureState server(&family, &db);
  double t = 1.0;
  ItemId id = 0;
  for (auto _ : state) {
    db.ApplyUpdate(id, t);
    server.OnItemChanged(id);
    id = (id + 7919) % 100000;
    t += 0.001;
  }
}
BENCHMARK(BM_ServerSignatureFold);

void BM_SigDiagnose(benchmark::State& state) {
  Database db(10000, 1);
  SignatureParams params;
  params.m = 2000;
  params.f = 10;
  params.g = 16;
  SignatureFamily family(10000, params, 1);
  ServerSignatureState server(&family, &db);
  std::vector<ItemId> interest;
  for (ItemId i = 0; i < 50; ++i) interest.push_back(i);
  ClientSignatureView view(&family, interest);
  view.DiagnoseAndAdopt(server.Combined(), interest);
  double t = 1.0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 10; ++i) {
      const ItemId id = static_cast<ItemId>(100 + (i * 31) % 9000);
      db.ApplyUpdate(id, t);
      server.OnItemChanged(id);
      t += 0.01;
    }
    state.ResumeTiming();
    const auto& invalid = view.DiagnoseAndAdopt(server.Combined(), interest);
    benchmark::DoNotOptimize(invalid);
  }
}
BENCHMARK(BM_SigDiagnose);

// Population scale: 10^4 views with independent 8-item hot spots on one
// family (the sleepers_sig shard shape: n = 1000, f = 10, m = 654), each
// awake for a report with probability 0.1, so the awake views hold a mix of
// baselines from many past reports. Times one report's diagnosis by every
// awake view; items processed = diagnoses.
void BM_SigDiagnosePopulation(benchmark::State& state) {
  constexpr uint64_t kN = 1000;
  constexpr size_t kViews = 10000;
  constexpr size_t kHotSpot = 8;
  constexpr double kAwake = 0.1;
  Database db(kN, 1);
  SignatureParams params;
  params.f = 10;
  params.g = 16;
  params.m = PaperRequiredSignatures(kN, params.f, 0.05);
  SignatureFamily family(kN, params, 1);
  ServerSignatureState server(&family, &db);
  Rng rng(5);
  std::vector<std::vector<ItemId>> hotspots;
  std::vector<std::unique_ptr<ClientSignatureView>> views;
  for (size_t v = 0; v < kViews; ++v) {
    hotspots.push_back(RandomHotSpot(kN, kHotSpot, rng));
    views.push_back(
        std::make_unique<ClientSignatureView>(&family, hotspots.back()));
  }
  double t = 1.0;
  auto next_report = [&] {
    const ItemId id = static_cast<ItemId>(rng.NextUint64(kN));
    db.ApplyUpdate(id, t);
    server.OnItemChanged(id);
    t += 1.0;
  };
  auto diagnose_awake = [&] {
    int64_t diagnoses = 0;
    for (size_t v = 0; v < kViews; ++v) {
      if (rng.NextDouble() >= kAwake) continue;
      const auto& invalid =
          views[v]->DiagnoseAndAdopt(server.Combined(), hotspots[v]);
      benchmark::DoNotOptimize(invalid);
      ++diagnoses;
    }
    return diagnoses;
  };
  for (int r = 0; r < 50; ++r) {  // spread the baselines over past reports
    next_report();
    diagnose_awake();
  }
  int64_t diagnoses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    next_report();
    state.ResumeTiming();
    diagnoses += diagnose_awake();
  }
  state.SetItemsProcessed(diagnoses);
  state.counters["live_baselines"] =
      static_cast<double>(family.live_baselines());
}
BENCHMARK(BM_SigDiagnosePopulation);

// TS report build in the server's steady state: each iteration applies one
// interval of `updates` through the batched apply (untimed), then builds
// the next consecutive interval's report into one reused slot — the splice
// server.report_build_s accumulates per broadcast. n = 2^20, L = 10, k = 10,
// warmed over k intervals so the report holds a full window.
void BM_TsBuildReport(benchmark::State& state) {
  constexpr uint64_t kItems = 1u << 20;
  constexpr double kL = 10.0;
  constexpr uint64_t kWindow = 10;
  const uint64_t updates = static_cast<uint64_t>(state.range(0));
  Database db(kItems, 1);
  TsServerStrategy server(&db, kL, kWindow);
  db.SetRetention(server.retention());
  Rng rng(2);
  std::vector<ItemId> ids(updates);
  std::vector<SimTime> times(updates);
  uint64_t interval = 0;
  // Applies interval+1's updates, spread evenly inside it; returns T_i.
  const double step = kL / static_cast<double>(updates + 1);
  auto drain = [&] {
    const SimTime start = kL * static_cast<double>(interval);
    ++interval;
    for (uint64_t i = 0; i < updates; ++i) {
      ids[i] = static_cast<ItemId>(rng.NextUint64(kItems));
      times[i] = start + step * static_cast<double>(i + 1);
    }
    db.ApplyUpdateBatch(ids.data(), times.data(), updates);
    return kL * static_cast<double>(interval);
  };
  // One reused report, as the server's arena slot is.
  Report report;
  for (uint64_t warm = 0; warm < kWindow; ++warm) {
    server.BuildReportInto(drain(), interval, &report);
  }
  for (auto _ : state) {
    state.PauseTiming();
    const SimTime now = drain();
    state.ResumeTiming();
    server.BuildReportInto(now, interval, &report);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(updates));
  state.counters["entries"] =
      static_cast<double>(std::get<TsReport>(report).entries.size());
}
BENCHMARK(BM_TsBuildReport)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AtClientApplyReport(benchmark::State& state) {
  const size_t cached = static_cast<size_t>(state.range(0));
  AtReport report;
  report.interval = 1;
  report.timestamp = 10.0;
  for (ItemId i = 0; i < 64; ++i) report.ids.push_back(i * 17);
  for (auto _ : state) {
    state.PauseTiming();
    ClientCache cache;
    AtClientManager manager;
    AtReport r0;
    r0.interval = 0;
    r0.timestamp = 0.0;
    manager.OnReport(Report(r0), &cache);
    for (ItemId i = 0; i < cached; ++i) cache.Put(i, i, 1.0);
    state.ResumeTiming();
    manager.OnReport(Report(report), &cache);
    benchmark::DoNotOptimize(cache);
  }
}
BENCHMARK(BM_AtClientApplyReport)->Arg(16)->Arg(256)->Arg(4096);

void BM_CachePutGet(benchmark::State& state) {
  ClientCache cache(1024);
  Rng rng(3);
  for (auto _ : state) {
    const ItemId id = static_cast<ItemId>(rng.NextUint64(4096));
    cache.Put(id, id, 1.0);
    benchmark::DoNotOptimize(cache.Get(id));
  }
}
BENCHMARK(BM_CachePutGet);

// ---------------------------------------------------------------------------
// Client revalidation: seed algorithm vs the watermark cache.

// The seed implementation's per-report client work, restated against the
// current cache API: probe the cache once per report entry, then allocate,
// sort, and re-stamp the surviving cache one item at a time.
void LegacyTsApply(const TsReport& ts, ClientCache* cache) {
  for (const TsReportEntry& entry : ts.entries) {
    const CacheEntry* cached = cache->Peek(entry.id);
    if (cached != nullptr && cached->timestamp < entry.updated_at) {
      cache->Erase(entry.id);
    }
  }
  for (ItemId id : cache->Items()) cache->SetTimestamp(id, ts.timestamp);
}

TsReport BigTsReport() {
  TsReport ts;
  ts.interval = 0;
  ts.window = 1e12;
  // Entries predate every cached stamp, so applying the report steadily
  // invalidates nothing — the benchmark measures pure revalidation cost.
  for (ItemId i = 0; i < 100000; ++i) {
    ts.entries.push_back(TsReportEntry{i, 0.5});
  }
  return ts;
}

void FillCache(ClientCache* cache, size_t cached) {
  for (size_t i = 0; i < cached; ++i) {
    cache->Put(static_cast<ItemId>(i * 97 % 100000), i, 1.0);
  }
}

void BM_TsOnReportLegacy(benchmark::State& state) {
  TsReport ts = BigTsReport();
  ClientCache cache;
  FillCache(&cache, static_cast<size_t>(state.range(0)));
  double t = 10.0;
  for (auto _ : state) {
    ts.timestamp = t;
    t += 10.0;
    LegacyTsApply(ts, &cache);
    benchmark::DoNotOptimize(cache.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ts.entries.size()));
}
BENCHMARK(BM_TsOnReportLegacy)->Arg(10)->Arg(100)->Arg(1000);

void BM_TsOnReportWatermark(benchmark::State& state) {
  Report report(BigTsReport());
  TsReport& ts = std::get<TsReport>(report);
  TsClientManager manager(10);
  ClientCache cache;
  // Baseline report first: the initial OnReport drops the (empty) cache.
  ts.timestamp = 5.0;
  manager.OnReport(report, &cache);
  FillCache(&cache, static_cast<size_t>(state.range(0)));
  double t = 10.0;
  for (auto _ : state) {
    ++ts.interval;
    ts.timestamp = t;
    t += 10.0;
    manager.OnReport(report, &cache);
    benchmark::DoNotOptimize(cache.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ts.entries.size()));
}
BENCHMARK(BM_TsOnReportWatermark)->Arg(10)->Arg(100)->Arg(1000);

// Population revalidation: 10^4 TS managers on one shared report index, each
// with its own random 8-item hot spot, hearing one ~400-entry report per
// iteration (the workaholics_ts shape: n = 1000, w = 10 intervals). The
// first listener decodes the report; every other one reads the table. Unlike
// BM_TsOnReportWatermark's single warm cache, the independent hot spots give
// the branch predictor no repeating pattern, so this is the per-unit number
// to hold against the shard lanes of a population run.
void BM_TsOnReportPopulation(benchmark::State& state) {
  constexpr uint64_t kN = 1000;
  constexpr size_t kUnits = 10000;
  constexpr size_t kHotSpot = 8;
  constexpr double kL = 10.0;
  constexpr uint64_t kK = 10;
  Rng rng(6);
  TsReportIndex index;
  std::vector<std::vector<ItemId>> hotspots;
  std::vector<std::unique_ptr<TsClientManager>> managers;
  std::vector<ClientCache> caches(kUnits);
  for (size_t u = 0; u < kUnits; ++u) {
    hotspots.push_back(RandomHotSpot(kN, kHotSpot, rng));
    managers.push_back(std::make_unique<TsClientManager>(kK, &index));
  }
  Report report{TsReport{}};
  TsReport& ts = std::get<TsReport>(report);
  ts.window = kL * static_cast<double>(kK);
  auto next_report = [&] {
    ++ts.interval;
    ts.timestamp = kL * static_cast<double>(ts.interval);
    ts.entries.clear();
    for (ItemId id = 0; id < kN; ++id) {
      if (rng.NextDouble() < 0.4) {
        ts.entries.push_back({id, ts.timestamp - ts.window * rng.NextDouble()});
      }
    }
  };
  // Misses are fetched uplink during the interval after the report.
  auto refill = [&] {
    for (size_t u = 0; u < kUnits; ++u) {
      for (ItemId id : hotspots[u]) {
        if (!caches[u].Contains(id)) {
          caches[u].Put(id, 0, ts.timestamp + kL * rng.NextDouble());
        }
      }
    }
  };
  next_report();
  for (size_t u = 0; u < kUnits; ++u) managers[u]->OnReport(report, &caches[u]);
  refill();
  uint64_t invalidated = 0;
  for (auto _ : state) {
    state.PauseTiming();
    next_report();
    state.ResumeTiming();
    for (size_t u = 0; u < kUnits; ++u) {
      invalidated += managers[u]->OnReport(report, &caches[u]);
    }
    state.PauseTiming();
    refill();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kUnits));
  state.counters["entries"] = static_cast<double>(ts.entries.size());
  state.counters["invalidated_per_unit"] = benchmark::Counter(
      static_cast<double>(invalidated) / static_cast<double>(kUnits),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TsOnReportPopulation);

// An AT server over n = 10^6 items, L = 10, and its update stream at
// `updates_per_interval`: 10^5 is update_storm_at's shape (mu = 0.01), 10^3
// Scenario 2's sparse windows (mu = 10^-4). Drain() applies the next
// interval's updates through the batched update kernel, prunes as the
// server does, and returns the broadcast instant T_i.
struct AtStormCell {
  static constexpr uint64_t kItems = 1000000;
  static constexpr double kL = 10.0;

  AtStormCell(JournalRetention retention, int64_t updates_per_interval)
      : db(kItems, 1),
        server(&db, kL),
        gen(&sim, &db,
            static_cast<double>(updates_per_interval) /
                (static_cast<double>(kItems) * kL),
            5) {
    db.SetRetention(retention);
  }

  SimTime Drain() {
    ++interval;
    const SimTime now = kL * static_cast<double>(interval);
    gen.GenerateIntervalUpdates(now, /*inclusive=*/false);
    db.PruneJournalBefore(now - 3.0 * kL);  // as Server::Broadcast prunes
    return now;
  }

  Simulator sim;
  Database db;
  AtServerStrategy server;
  UpdateGenerator gen;
  uint64_t interval = 0;
};

// AT report build, timed after each untimed drain. First arg: 0 arms
// kFullWindow (the bits plus the raw log, which the query never reads), 1
// kDirtySet (the bits alone); both answer from the fresh bits alone in
// steady state. Second arg: updates per interval; server.report_build_s on
// update_storm_at accumulates the /1/100000 per-report cost.
void BM_AtBuildReportStorm(benchmark::State& state) {
  AtStormCell cell(state.range(0) == 0 ? JournalRetention::kFullWindow
                                       : JournalRetention::kDirtySet,
                   state.range(1));
  if (!cell.gen.Start().ok()) state.SkipWithError("generator start failed");
  Report report;
  for (int warm = 0; warm < 3; ++warm) {
    cell.server.BuildReportInto(cell.Drain(), cell.interval, &report);
  }
  uint64_t listed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const SimTime now = cell.Drain();
    state.ResumeTiming();
    cell.server.BuildReportInto(now, cell.interval, &report);
    const std::vector<ItemId>& ids = std::get<AtReport>(report).ids;
    benchmark::DoNotOptimize(ids.data());
    benchmark::ClobberMemory();
    listed += ids.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(listed));
}
BENCHMARK(BM_AtBuildReportStorm)
    ->Args({0, 100000})
    ->Args({1, 100000})
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Update delivery: the lookahead drain (UpdateGenerator through
// Database::ApplyUpdateBatch). Arg is the database size — larger slabs push
// every update into a DRAM miss, which the drain's prefetches hide. No
// journal (kNone), so this measures the kernel, not bucket bookkeeping.
// ~1000 updates flow per iteration (total rate 1000/s, one simulated second
// advanced).

void BM_UpdateBatch(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  Simulator sim;
  Database db(n, 1);
  db.SetRetention(JournalRetention::kNone);
  UpdateGenerator gen(&sim, &db, 1000.0 / static_cast<double>(n), 5);
  if (!gen.Start().ok()) state.SkipWithError("generator start failed");
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    gen.GenerateIntervalUpdates(t, /*inclusive=*/true);
    benchmark::DoNotOptimize(db.total_updates());
  }
  state.SetItemsProcessed(static_cast<int64_t>(gen.updates_generated()));
}
BENCHMARK(BM_UpdateBatch)->RangeMultiplier(10)->Range(1000, 1000000);

// ---------------------------------------------------------------------------
// Barrier replay selectors: the naive scan-every-source merge the replay
// used to run vs the loser tree that replaced it (util/merge.h). Arg is the
// number of time-sorted sources (shard logs); records are pre-generated so
// both selectors merge identical inputs.

std::vector<std::vector<double>> MergeSources(size_t k) {
  std::vector<std::vector<double>> sources(k);
  Rng rng(11);
  for (auto& src : sources) {
    src.resize(100000 / k);
    double t = 0.0;
    // Coarse grid: frequent cross-source ties, like simultaneous interval
    // ticks across shards.
    for (double& key : src) {
      t += 0.01 * static_cast<double>(rng.NextUint64(8));
      key = t;
    }
  }
  return sources;
}

void BM_KWayMergeLinearScan(benchmark::State& state) {
  const auto sources = MergeSources(static_cast<size_t>(state.range(0)));
  std::vector<size_t> cursor(sources.size());
  uint64_t merged = 0;
  for (auto _ : state) {
    cursor.assign(sources.size(), 0);
    double sum = 0.0;
    for (;;) {
      size_t best = sources.size();
      for (size_t r = 0; r < sources.size(); ++r) {
        if (cursor[r] >= sources[r].size()) continue;
        if (best == sources.size() ||
            sources[r][cursor[r]] < sources[best][cursor[best]]) {
          best = r;
        }
      }
      if (best == sources.size()) break;
      sum += sources[best][cursor[best]];
      ++cursor[best];
      ++merged;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(merged));
}
BENCHMARK(BM_KWayMergeLinearScan)->Arg(2)->Arg(8)->Arg(32);

void BM_KWayMergeLoserTree(benchmark::State& state) {
  const auto sources = MergeSources(static_cast<size_t>(state.range(0)));
  std::vector<size_t> cursor(sources.size());
  LoserTreeMerger merger;
  uint64_t merged = 0;
  for (auto _ : state) {
    cursor.assign(sources.size(), 0);
    merger.Reset(sources.size());
    for (size_t r = 0; r < sources.size(); ++r) {
      if (!sources[r].empty()) merger.SetHead(r, sources[r][0]);
    }
    merger.Build();
    double sum = 0.0;
    while (!merger.exhausted()) {
      const size_t r = merger.top();
      sum += merger.top_key();
      ++merged;
      const size_t next = ++cursor[r];
      merger.Advance(next < sources[r].size() ? sources[r][next]
                                              : LoserTreeMerger::kExhausted);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(merged));
}
BENCHMARK(BM_KWayMergeLoserTree)->Arg(2)->Arg(8)->Arg(32);

// ---------------------------------------------------------------------------
// Combined signatures: full recompute from the database (what an on-demand
// server pays per report) vs XOR-folding only the interval's dirty items.

void BM_SigRecomputeFull(benchmark::State& state) {
  Database db(50000, 1);
  SignatureParams params;
  params.m = 2000;
  params.f = 10;
  params.g = 16;
  SignatureFamily family(50000, params, 1);
  // One untimed build fills the family's subset storage, so every timed
  // iteration is the same warm recompute.
  ServerSignatureState warm(&family, &db);
  benchmark::DoNotOptimize(warm.Combined());
  for (auto _ : state) {
    ServerSignatureState server(&family, &db);
    benchmark::DoNotOptimize(server.Combined());
  }
}
BENCHMARK(BM_SigRecomputeFull);

void BM_SigRecomputeIncremental(benchmark::State& state) {
  const int dirty = static_cast<int>(state.range(0));
  Database db(50000, 1);
  SignatureParams params;
  params.m = 2000;
  params.f = 10;
  params.g = 16;
  SignatureFamily family(50000, params, 1);
  ServerSignatureState server(&family, &db);
  double t = 1.0;
  ItemId id = 0;
  for (auto _ : state) {
    for (int i = 0; i < dirty; ++i) {
      db.ApplyUpdate(id, t);
      server.OnItemChanged(id);
      id = (id + 7919) % 50000;
      t += 0.001;
    }
    db.PruneJournalBefore(t - 1.0);
    benchmark::DoNotOptimize(server.Combined());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * dirty);
}
BENCHMARK(BM_SigRecomputeIncremental)->Arg(100);

}  // namespace
}  // namespace mobicache

BENCHMARK_MAIN();
