#include "exp/strategy_factory.h"

#include <algorithm>

#include "core/at.h"
#include "core/grouped.h"
#include "core/hybrid.h"
#include "core/nocache.h"
#include "core/sig_strategy.h"
#include "core/stateful.h"
#include "core/ts.h"
#include "mu/hotspot.h"
#include "util/bits.h"

namespace mobicache {

Status NormalizeCellConfig(CellConfig* config) {
  const ModelParams& m = config->model;
  if (m.n == 0) return Status::InvalidArgument("database size must be >= 1");
  if (m.L <= 0.0) return Status::InvalidArgument("latency must be positive");
  if (m.W <= 0.0) return Status::InvalidArgument("bandwidth must be positive");
  if (m.s < 0.0 || m.s > 1.0) {
    return Status::InvalidArgument("sleep probability must be in [0, 1]");
  }
  if (config->hotspot_size == 0 || config->hotspot_size > m.n) {
    return Status::InvalidArgument("hotspot size must be in [1, n]");
  }
  if (config->num_units == 0) {
    return Status::InvalidArgument("need at least one mobile unit");
  }
  if (config->strategy == StrategyKind::kGroupedAt &&
      (config->num_groups == 0 || config->num_groups > m.n)) {
    return Status::InvalidArgument("num_groups must be in [1, n]");
  }
  if (!config->custom_hotspots.empty()) {
    if (config->custom_hotspots.size() != config->num_units) {
      return Status::InvalidArgument(
          "custom_hotspots must have one entry per unit");
    }
    for (const auto& hotspot : config->custom_hotspots) {
      if (hotspot.empty()) {
        return Status::InvalidArgument("custom hotspot may not be empty");
      }
      for (ItemId id : hotspot) {
        if (id >= m.n) {
          return Status::InvalidArgument("custom hotspot item out of range");
        }
      }
    }
  }
  if (!config->update_rates.empty() && config->update_rates.size() != m.n) {
    return Status::InvalidArgument("update_rates size must equal n");
  }
  if ((config->strategy == StrategyKind::kSig ||
       config->strategy == StrategyKind::kHybridSig) &&
      !(config->sig_k_threshold >= 0.0 && config->sig_gamma >= 0.0)) {
    // Diagnosis relies on a non-negative threshold: an item none of whose
    // subsets mismatch is never invalid.
    return Status::InvalidArgument(
        "sig_k_threshold and sig_gamma must be non-negative");
  }
  if (config->strategy == StrategyKind::kHybridSig) {
    if (config->hybrid_hot_set.empty()) {
      config->hybrid_hot_set =
          ContiguousHotSpot(m.n, 0, config->hotspot_size);
    }
    if (!std::is_sorted(config->hybrid_hot_set.begin(),
                        config->hybrid_hot_set.end())) {
      return Status::InvalidArgument("hybrid_hot_set must be sorted");
    }
    for (ItemId id : config->hybrid_hot_set) {
      if (id >= m.n) {
        return Status::InvalidArgument("hybrid_hot_set item out of range");
      }
    }
  }
  return Status::OK();
}

MessageSizes ComputeMessageSizes(const ModelParams& m) {
  MessageSizes sizes;
  sizes.bq = m.bq;
  sizes.ba = m.ba;
  sizes.bT = m.bT;
  sizes.id_bits =
      m.id_bits_override != 0 ? m.id_bits_override : BitsForIds(m.n);
  sizes.sig_bits = m.g;
  return sizes;
}

std::unique_ptr<SignatureFamily> MakeSignatureFamilyForCell(
    const CellConfig& config, uint64_t family_seed) {
  if (config.strategy != StrategyKind::kSig &&
      config.strategy != StrategyKind::kHybridSig) {
    return nullptr;
  }
  const ModelParams& m = config.model;
  SignatureParams sp;
  sp.f = m.f;
  sp.g = m.g;
  sp.k_threshold = config.sig_k_threshold;
  sp.per_item_threshold = config.sig_per_item_threshold;
  sp.gamma = config.sig_gamma;
  sp.m = SigSignatureCount(m);
  return std::make_unique<SignatureFamily>(m.n, sp, family_seed);
}

std::unique_ptr<TsReportIndex> MakeTsReportIndexForCell(
    const CellConfig& config) {
  if (config.strategy != StrategyKind::kTs &&
      config.strategy != StrategyKind::kAdaptiveTs) {
    return nullptr;
  }
  return std::make_unique<TsReportIndex>();
}

std::unique_ptr<NumericWalk> MakeNumericWalkForCell(const CellConfig& config,
                                                    uint64_t db_seed) {
  if (config.strategy != StrategyKind::kQuasiAt || !config.quasi_arithmetic) {
    return nullptr;
  }
  return std::make_unique<NumericWalk>(db_seed ^ 0x5bd1e995,
                                       config.numeric_step_scale);
}

std::unique_ptr<ServerStrategy> MakeServerStrategy(
    const StrategyFactoryContext& ctx) {
  const CellConfig& config = *ctx.config;
  const ModelParams& m = config.model;
  switch (config.strategy) {
    case StrategyKind::kTs:
      return std::make_unique<TsServerStrategy>(ctx.db, m.L, m.k);
    case StrategyKind::kAt:
      return std::make_unique<AtServerStrategy>(ctx.db, m.L);
    case StrategyKind::kSig:
      return std::make_unique<SigServerStrategy>(ctx.db, ctx.family, m.L);
    case StrategyKind::kAdaptiveTs:
      return std::make_unique<AdaptiveTsServerStrategy>(ctx.db, m.L,
                                                        ctx.sizes,
                                                        config.adaptive);
    case StrategyKind::kQuasiAt:
      if (config.quasi_arithmetic) {
        return std::make_unique<ArithmeticAtServerStrategy>(
            ctx.db, ctx.walk, m.L, config.quasi_epsilon);
      }
      return std::make_unique<QuasiAtServerStrategy>(
          ctx.db, m.L, config.quasi_alpha_intervals);
    case StrategyKind::kGroupedAt:
      return std::make_unique<GroupedAtServerStrategy>(ctx.db, m.L,
                                                       config.num_groups);
    case StrategyKind::kHybridSig:
      return std::make_unique<HybridSigServerStrategy>(
          ctx.db, ctx.family, m.L, config.hybrid_hot_set);
    case StrategyKind::kNoCache:
      // No-caching cells never read their update stream back: declare the
      // journal away entirely instead of having each driver disable it.
      return std::make_unique<NullServerStrategy>(JournalRetention::kNone);
    case StrategyKind::kIdeal:
    case StrategyKind::kStateful:
    case StrategyKind::kAsync:
      // Full retention: these baselines are audited against historical
      // values (ValueAt) by the safety tests.
      return std::make_unique<NullServerStrategy>();
  }
  return nullptr;
}

std::unique_ptr<ClientCacheManager> MakeClientManager(
    const StrategyFactoryContext& ctx, const std::vector<ItemId>& hotspot) {
  const CellConfig& config = *ctx.config;
  const ModelParams& m = config.model;
  switch (config.strategy) {
    case StrategyKind::kTs:
      return std::make_unique<TsClientManager>(m.k, ctx.ts_index);
    case StrategyKind::kAt:
      return std::make_unique<AtClientManager>();
    case StrategyKind::kSig:
      return std::make_unique<SigClientManager>(ctx.family, hotspot);
    case StrategyKind::kAdaptiveTs:
      return std::make_unique<AdaptiveTsClientManager>(m.L, config.adaptive,
                                                       ctx.ts_index);
    case StrategyKind::kQuasiAt:
      if (config.quasi_arithmetic) {
        // Arithmetic-condition clients are plain AT clients; the filtering
        // happens entirely server-side.
        return std::make_unique<AtClientManager>();
      }
      return std::make_unique<QuasiAtClientManager>(
          m.L * static_cast<double>(config.quasi_alpha_intervals), m.L);
    case StrategyKind::kGroupedAt:
      return std::make_unique<GroupedAtClientManager>(m.n,
                                                      config.num_groups);
    case StrategyKind::kHybridSig:
      return std::make_unique<HybridSigClientManager>(
          ctx.family, hotspot, config.hybrid_hot_set);
    case StrategyKind::kNoCache:
      return std::make_unique<NoCacheClientManager>();
    case StrategyKind::kAsync:
      return std::make_unique<AsyncClientManager>();
    case StrategyKind::kIdeal:
      return std::make_unique<StatefulClientManager>(StatefulMode::kIdeal);
    case StrategyKind::kStateful:
      return std::make_unique<StatefulClientManager>(StatefulMode::kStateful);
  }
  return nullptr;
}

}  // namespace mobicache
