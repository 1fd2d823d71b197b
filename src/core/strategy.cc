#include "core/strategy.h"

namespace mobicache {

std::string_view StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kTs:
      return "TS";
    case StrategyKind::kAt:
      return "AT";
    case StrategyKind::kSig:
      return "SIG";
    case StrategyKind::kNoCache:
      return "nocache";
    case StrategyKind::kAdaptiveTs:
      return "ATS";
    case StrategyKind::kIdeal:
      return "ideal";
    case StrategyKind::kStateful:
      return "stateful";
    case StrategyKind::kQuasiAt:
      return "QAT";
    case StrategyKind::kAsync:
      return "async";
    case StrategyKind::kGroupedAt:
      return "GAT";
    case StrategyKind::kHybridSig:
      return "HYB";
  }
  return "unknown";
}

void ClientCacheManager::OnUplinkFetch(ItemId id, uint64_t value,
                                       SimTime server_time,
                                       ClientCache* cache) {
  cache->Put(id, value, server_time);
}

bool ClientCacheManager::CanAnswerFromCache(ItemId id, SimTime /*now*/,
                                            const ClientCache& cache) const {
  return cache.Contains(id);
}

}  // namespace mobicache
