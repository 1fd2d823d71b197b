#include "core/coherency.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/random.h"

namespace mobicache {

double NumericWalk::Step(ItemId id, uint64_t r) const {
  assert(r >= 1);
  uint64_t state = seed_ ^ (0x9E3779B97F4A7C15ULL * (id + 1)) ^
                   (0xC2B2AE3D27D4EB4FULL * r);
  const double u =
      static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;  // [0,1)
  return (2.0 * u - 1.0) * step_scale_;
}

double NumericWalk::Value(ItemId id, uint64_t version) const {
  return Advance(id, 0, version, 0.0);
}

double NumericWalk::Advance(ItemId id, uint64_t from_version,
                            uint64_t to_version, double value) const {
  assert(from_version <= to_version);
  for (uint64_t r = from_version + 1; r <= to_version; ++r) {
    value += Step(id, r);
  }
  return value;
}

QuasiAtServerStrategy::QuasiAtServerStrategy(const Database* db,
                                             SimTime latency,
                                             uint64_t alpha_intervals)
    : db_(db), latency_(latency), alpha_intervals_(alpha_intervals) {
  assert(latency > 0.0);
  assert(alpha_intervals >= 1);
}

SimTime QuasiAtServerStrategy::JournalHorizonSeconds() const {
  // The builder itself only scans one interval, but keeping alpha + L of
  // history lets observers audit the staleness bound of delivered answers.
  return alpha() + latency_;
}

void QuasiAtServerStrategy::OnUplinkQuery(const UplinkQueryInfo& info) {
  ItemObligation& ob = obligations_[info.id];
  if (!ob.has_outstanding) {
    // First copy handed out since the last inclusion: the fetching client
    // leaves with the version current just before the query instant, and
    // the delay clock starts then. The cell engine replays queries at its
    // window barrier, when later updates of the window may have landed, so
    // those are taken back out through the (full-window) journal.
    ob.has_outstanding = true;
    ob.eligible_at =
        static_cast<uint64_t>(std::floor(info.time / latency_)) +
        alpha_intervals_;
    assert(db_->retention() == JournalRetention::kFullWindow);
    const SimTime before = std::nextafter(
        info.time, -std::numeric_limits<SimTime>::infinity());
    ob.last_included_version = db_->LastUpdateOf(info.id) < info.time
                                   ? db_->VersionOf(info.id)
                                   : db_->VersionAt(info.id, before);
  }
  // Later fetches inherit the earlier (stricter) obligation: the oldest
  // outstanding copy governs the reporting deadline.
}

void QuasiAtServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                            Report* out) {
  // The obligation tables grow with the items clients fetch, off the lean
  // strategies' allocation-free contract; the candidate list and the report
  // fill retained capacity. detlint:allow-function(alloc-event-path)
  AtReport& report = ReuseAs<AtReport>(out);
  report.interval = interval;
  report.timestamp = now;
  report.ids.clear();

  // Candidates: fresh changes from the last interval plus changes still
  // deferred by an unmatured obligation.
  db_->UpdatedIdsIn(now - latency_, now, &candidates_);
  candidates_.insert(candidates_.end(), pending_.begin(), pending_.end());
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());

  for (ItemId id : candidates_) {
    ItemObligation& ob = obligations_[id];
    const bool changed = db_->VersionOf(id) > ob.last_included_version;
    if (!changed) {
      pending_.erase(id);
      continue;
    }
    if (!ob.has_outstanding) {
      // No client holds a copy: nothing to invalidate; a future fetch gets
      // the fresh value anyway.
      pending_.erase(id);
      ob.last_included_version = db_->VersionOf(id);
      continue;
    }
    if (interval >= ob.eligible_at) {
      report.ids.push_back(id);
      ob.last_included_version = db_->VersionOf(id);
      // Inclusion invalidates every copy (awake clients drop it now;
      // sleepers drop their whole cache on waking), so the slate is clean.
      ob.has_outstanding = false;
      ob.eligible_at = 0;
      pending_.erase(id);
    } else {
      ++deferrals_;
      pending_.insert(id);
    }
  }
  std::sort(report.ids.begin(), report.ids.end());
}

uint64_t QuasiAtClientManager::OnReport(const Report& report,
                                        ClientCache* cache) {
  const auto& at = std::get<AtReport>(report);
  uint64_t invalidated = 0;

  const bool missed_one = !heard_any_ || at.interval > last_interval_ + 1;
  if (missed_one) {
    invalidated = cache->size();
    cache->Clear();
  } else {
    for (ItemId id : at.ids) {
      if (cache->Erase(id)) ++invalidated;
    }
    // Aging protocol (§7): a copy that would exceed alpha before the next
    // report is re-stamped now — it survived a report whose obligations had
    // matured, so the server vouched for it afresh. Younger copies keep
    // their original stamp so their true age stays visible. (Selective
    // re-stamping means the cache-wide watermark does not apply here.)
    restamp_.clear();
    cache->ForEachItem([&](ItemId id, const CacheEntry& entry) {
      if (at.timestamp - entry.timestamp > alpha_ - latency_) {
        // Member scratch, capacity retained across reports.
        // detlint:allow(alloc-event-path)
        restamp_.push_back(id);
      }
    });
    for (ItemId id : restamp_) cache->SetTimestamp(id, at.timestamp);
  }

  heard_any_ = true;
  last_interval_ = at.interval;
  return invalidated;
}

bool QuasiAtClientManager::CanAnswerFromCache(ItemId id, SimTime now,
                                              const ClientCache& cache) const {
  const CacheEntry* entry = cache.Peek(id);
  if (entry == nullptr) return false;
  // A copy strictly older than alpha may not answer until re-validated.
  return now - entry->timestamp <= alpha_;
}

ArithmeticAtServerStrategy::ArithmeticAtServerStrategy(const Database* db,
                                                       const NumericWalk* walk,
                                                       SimTime latency,
                                                       double epsilon)
    : db_(db), walk_(walk), latency_(latency), epsilon_(epsilon) {
  assert(latency > 0.0);
  assert(epsilon >= 0.0);
}

ArithmeticAtServerStrategy::ItemDrift& ArithmeticAtServerStrategy::Track(
    ItemId id) const {
  ItemDrift& d = drift_[id];
  const uint64_t current = db_->VersionOf(id);
  if (current > d.version) {
    d.numeric = walk_->Advance(id, d.version, current, d.numeric);
    d.version = current;
  }
  return d;
}

void ArithmeticAtServerStrategy::BuildReportInto(SimTime now,
                                                 uint64_t interval,
                                                 Report* out) {
  // The drift table grows with the items that change, off the lean
  // strategies' allocation-free contract; the report fills retained
  // capacity. detlint:allow-function(alloc-event-path)
  AtReport& report = ReuseAs<AtReport>(out);
  report.interval = interval;
  report.timestamp = now;
  report.ids.clear();
  db_->UpdatedIdsIn(now - latency_, now, &changed_);
  for (ItemId id : changed_) {
    ItemDrift& d = Track(id);
    if (std::fabs(d.numeric - d.last_reported) > epsilon_) {
      report.ids.push_back(id);
      d.last_reported = d.numeric;
    } else {
      ++suppressions_;
    }
  }
}

double ArithmeticAtServerStrategy::CurrentNumeric(ItemId id) const {
  return Track(id).numeric;
}

}  // namespace mobicache
