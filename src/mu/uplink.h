// The uplink a mobile unit fetches through on a cache miss, and the
// time-ordered log of server interactions its cell shard replays at the
// window barrier.
//
// FetchItem answers from the database at the shard's own clock. The cell
// engine runs shards while the database is quiescent and already holds the
// window's updates up to the cut; no statistic or protocol decision reads a
// fetched value (validity is timestamp-based), so the current value serves
// unless exact mode is on — then, for an answer observer's audit, the value
// as of the fetch instant (updates strictly before it), rebuilt from the
// journal when the item changed since.
//
// Fetches and the stateful registry's channel charges (LogTransmit) append
// to one log, sorted by time because the shard clock is monotonic.
// MegaCell::ReplayWindow merges the shards' logs onto the server
// (AccountUplinkQuery) and the channel (Transmit), then clears them.

#ifndef MOBICACHE_MU_UPLINK_H_
#define MOBICACHE_MU_UPLINK_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/strategy.h"
#include "db/database.h"
#include "net/channel.h"
#include "sim/simulator.h"

namespace mobicache {

class Uplink {
 public:
  /// One logged server interaction.
  struct LogRecord {
    enum Kind : uint8_t { kUplink, kTransmit };
    SimTime time = 0.0;
    Kind kind = kUplink;
    UplinkQueryInfo info;                      ///< kUplink.
    uint64_t bits = 0;                         ///< kTransmit.
    TrafficClass cls = TrafficClass::kReport;  ///< kTransmit.
  };

  struct FetchResult {
    uint64_t value = 0;
    SimTime server_time = 0.0;  ///< Timestamp assigned to the fetched copy.
  };

  /// `sim` is the clock that stamps fetches and log records.
  Uplink(const Simulator* sim, const Database* db) : sim_(sim), db_(db) {}

  Uplink(const Uplink&) = delete;
  Uplink& operator=(const Uplink&) = delete;

  /// Answers one uplink query (a cache miss) and logs it; piggybacked
  /// feedback in `info.local_hit_times` reaches the server strategy at
  /// replay.
  FetchResult FetchItem(UplinkQueryInfo info) {
    const SimTime now = sim_->Now();
    const ItemId id = info.id;
    LogRecord rec;
    rec.time = now;
    rec.kind = LogRecord::kUplink;
    rec.info = std::move(info);
    // Per-window shard log, cleared at the barrier with capacity retained.
    // detlint:allow(alloc-event-path)
    log_.push_back(std::move(rec));
    if (exact_ && db_->LastUpdateOf(id) >= now) {
      // ValueAt is a const journal scan (no lazy fill), safe to run on every
      // shard lane at once; the bound just below `now` excludes updates at
      // the fetch instant itself.
      const SimTime before =
          std::nextafter(now, -std::numeric_limits<SimTime>::infinity());
      return FetchResult{db_->ValueAt(id, before), now};
    }
    return FetchResult{db_->ValueOf(id), now};
  }

  /// Logs a channel charge (a stateful-registry message) at the current
  /// time.
  void LogTransmit(uint64_t bits, TrafficClass cls) {
    LogRecord rec;
    rec.time = sim_->Now();
    rec.kind = LogRecord::kTransmit;
    rec.bits = bits;
    rec.cls = cls;
    log_.push_back(std::move(rec));
  }

  const std::vector<LogRecord>& log() const { return log_; }
  /// Empties the log, keeping its capacity (called at every barrier).
  void ClearLog() { log_.clear(); }

  /// Serve values as of the fetch instant (set when a unit has an answer
  /// observer).
  void set_exact(bool exact) { exact_ = exact; }

 private:
  const Simulator* sim_;
  const Database* db_;
  std::vector<LogRecord> log_;
  bool exact_ = false;
};

}  // namespace mobicache

#endif  // MOBICACHE_MU_UPLINK_H_
