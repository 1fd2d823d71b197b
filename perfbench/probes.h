// Layer probes for the traced run: direct calls into each layer's public
// functions, with inputs built from the workload's cell configuration, timed
// per operation. Multiplied by the run's operation counts they predict the
// layer's share of the engine's wall accounts (the "micro predicts macro"
// table); a gap between prediction and account is a finding.

#ifndef MOBICACHE_PERFBENCH_PROBES_H_
#define MOBICACHE_PERFBENCH_PROBES_H_

#include <cstdint>

#include "exp/cell.h"

namespace mobicache::perfbench {

struct ProbeResult {
  /// UpdateGenerator::GenerateIntervalUpdates, ns per update drained.
  double apply_ns = 0.0;
  /// Database::UpdatedIn over one interval's window, ns per call.
  double window_query_ns = 0.0;
  /// ServerStrategy::BuildReportInto, ns per report.
  double build_report_ns = 0.0;
  /// ClientCacheManager::OnReport on a hot-spot-sized cache, ns per report.
  double on_report_ns = 0.0;
  /// ClientSignatureView construction over the hot spot, ns per view.
  double view_build_ns = 0.0;
  /// ClientSignatureView::DiagnoseAndAdopt, ns per diagnosis.
  double diagnose_ns = 0.0;
  /// Subset signatures one unit's view retains.
  double signatures_per_unit = 0.0;
  /// Simulator::ScheduleAt + Run, ns per event.
  double dispatch_ns = 0.0;
  /// LoserTreeMerger over `merge_sources` logs, ns per record.
  double merge_ns = 0.0;
};

/// Runs every probe for `config` (SIG probes use the same parameters with
/// the SIG strategy). `merge_sources` is the number of shard logs the
/// barrier merges. Probes run a fixed amount of work each and report the
/// median of several batches.
ProbeResult RunProbes(const CellConfig& config, uint32_t merge_sources);

}  // namespace mobicache::perfbench

#endif  // MOBICACHE_PERFBENCH_PROBES_H_
