// Shared construction logic for cell experiments: config validation and the
// strategy-kind -> component switches, so the cell engine (megacell.*)
// builds byte-identical components per shard — each
// shard needs its own ClientCacheManager per unit and, for the signature
// strategies, its own SignatureFamily replica (the family's membership rows
// and baseline pool are written by diagnosis and are not thread-safe;
// deterministically re-deriving them from the same seed is cheaper than
// locking them). TS strategies likewise get one
// TsReportIndex per shard.

#ifndef MOBICACHE_EXP_STRATEGY_FACTORY_H_
#define MOBICACHE_EXP_STRATEGY_FACTORY_H_

#include <memory>
#include <vector>

#include "core/coherency.h"
#include "core/strategy.h"
#include "core/ts.h"
#include "db/database.h"
#include "exp/cell.h"
#include "sig/signature.h"
#include "util/status.h"

namespace mobicache {

/// Validates `config` and normalizes the derived fields (fills an empty
/// hybrid_hot_set from the shared hot spot). The checks run in a fixed
/// order, so error text is stable.
Status NormalizeCellConfig(CellConfig* config);

/// The message-size vocabulary implied by the model parameters.
MessageSizes ComputeMessageSizes(const ModelParams& m);

/// Builds the SignatureFamily for a SIG/hybrid-SIG cell (null for other
/// strategies). Deterministic in (config, family_seed): calling it twice
/// yields independent but identical replicas.
std::unique_ptr<SignatureFamily> MakeSignatureFamilyForCell(
    const CellConfig& config, uint64_t family_seed);

/// Builds the TsReportIndex a TS/adaptive-TS decoding domain shares (null
/// for other strategies): one per MegaCell shard.
std::unique_ptr<TsReportIndex> MakeTsReportIndexForCell(
    const CellConfig& config);

/// Builds the numeric random walk for the arithmetic quasi-copy condition
/// (null otherwise). Seeded from the database seed.
std::unique_ptr<NumericWalk> MakeNumericWalkForCell(const CellConfig& config,
                                                    uint64_t db_seed);

/// Everything the per-kind component switches need. `family` / `ts_index` /
/// `walk` may be null when the strategy does not use them; TS and adaptive-TS
/// managers built with no `ts_index` decode reports privately.
struct StrategyFactoryContext {
  const CellConfig* config = nullptr;
  MessageSizes sizes;
  Database* db = nullptr;
  SignatureFamily* family = nullptr;
  TsReportIndex* ts_index = nullptr;
  NumericWalk* walk = nullptr;
};

std::unique_ptr<ServerStrategy> MakeServerStrategy(
    const StrategyFactoryContext& ctx);

std::unique_ptr<ClientCacheManager> MakeClientManager(
    const StrategyFactoryContext& ctx, const std::vector<ItemId>& hotspot);

}  // namespace mobicache

#endif  // MOBICACHE_EXP_STRATEGY_FACTORY_H_
