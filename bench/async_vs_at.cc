// §3.2 equivalence study: AT vs asynchronous per-update invalidation
// broadcast. The paper argues the two are equivalent — the same identifiers
// go downlink and both lose the cache across disconnections; AT merely
// batches them into periodic reports (with a latency guarantee), while the
// asynchronous mode answers immediately but guarantees nothing about
// waiting times. The table quantifies all of that across sleep levels.

#include <iostream>

#include "bench_common.h"
#include "exp/megacell.h"
#include "util/table.h"

namespace mobicache {
namespace {

CellResult RunOne(StrategyKind kind, double s) {
  CellConfig config;
  config.model.n = 1000;
  config.model.mu = 1e-3;
  config.model.s = s;
  config.strategy = kind;
  config.num_units = 20;
  config.hotspot_size = 20;
  config.seed = 31;
  MegaCell cell({config});
  if (!cell.Build().ok() || !cell.Run(40, 500).ok()) {
    std::cerr << "cell failed\n";
    std::exit(1);
  }
  return cell.result();
}

int Run() {
  std::cout << "AT vs asynchronous invalidation broadcast (S3.2 "
               "equivalence)\n(n = 1000, mu = 1e-3; 500 measured "
               "intervals)\n\n";
  TablePrinter table({"s", "mode", "invalidation bits", "hit ratio",
                      "mean latency(s)", "uplink queries"});
  for (double s : {0.0, 0.3, 0.6}) {
    for (StrategyKind kind : {StrategyKind::kAt, StrategyKind::kAsync}) {
      const CellResult r = RunOne(kind, s);
      table.AddRow({TablePrinter::Num(s, 2),
                    std::string(StrategyName(kind)),
                    TablePrinter::Int(r.channel.report_bits),
                    TablePrinter::Num(r.hit_ratio),
                    TablePrinter::Num(r.mean_answer_latency, 4),
                    TablePrinter::Int(r.channel.uplink_query_count)});
    }
  }
  table.RenderText(std::cout);
  std::cout << "\nThe invalidation traffic is near-identical (AT saves a "
               "little by deduplicating\nwithin an interval). Async answers "
               "with zero latency; AT's periodic report\nguarantees a bound "
               "(~L plus naps) that async cannot give a disconnected "
               "client.\nPer-query hit ratios differ for accounting "
               "reasons: async serves repeats\nindividually and answers "
               "before in-interval updates land.\n";
  return 0;
}

}  // namespace
}  // namespace mobicache

int main(int argc, char** argv) {
  mobicache::ParseNoFlags(
      argc, argv,
      "AT vs asynchronous per-update invalidation broadcast (paper\n"
      "§3.2) across sleep levels.");
  return mobicache::Run();
}
