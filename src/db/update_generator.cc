#include "db/update_generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/wall_timer.h"

namespace mobicache {

namespace {

/// The weighted profile's item for a uniform draw `u` in [0, total): the
/// first item whose cumulative rate reaches it.
ItemId CdfPick(const std::vector<double>& cdf, double u) {
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<ItemId>(it - cdf.begin());
}

}  // namespace

UpdateGenerator::UpdateGenerator(Simulator* sim, Database* db,
                                 double mu_per_item, uint64_t seed)
    : sim_(sim), db_(db), rng_(seed), uniform_rate_(mu_per_item) {
  assert(mu_per_item >= 0.0);
  total_rate_ = mu_per_item * static_cast<double>(db_->size());
}

UpdateGenerator::UpdateGenerator(Simulator* sim, Database* db,
                                 std::vector<double> rates, uint64_t seed)
    : sim_(sim), db_(db), rng_(seed), rates_(std::move(rates)) {
  assert(rates_.size() == db_->size());
  rate_cdf_.resize(rates_.size());
  double acc = 0.0;
  for (size_t i = 0; i < rates_.size(); ++i) {
    assert(rates_[i] >= 0.0);
    acc += rates_[i];
    rate_cdf_[i] = acc;
  }
  total_rate_ = acc;
}

UpdateGenerator::~UpdateGenerator() { Stop(); }

Status UpdateGenerator::Start() {
  if (active_) return Status::FailedPrecondition("generator already started");
  active_ = true;
  if (total_rate_ > 0.0) {
    // Seed the lookahead with the first pair, so the drain loop's invariant
    // (the queue head *is* the pending update) holds from the first pump.
    const double gap = rng_.Exponential(total_rate_);
    look_item_[0] = SampleItem();
    look_time_[0] = sim_->Now() + gap;
    look_pos_ = 0;
    look_len_ = 1;
    db_->PrefetchItem(look_item_[0]);
  }
  return Status::OK();
}

void UpdateGenerator::Stop() {
  if (!active_) return;
  // A run that stops at Now() has seen every update up to and including
  // that instant.
  GenerateIntervalUpdates(sim_->Now(), /*inclusive=*/true);
  active_ = false;
}

double UpdateGenerator::RateOf(ItemId id) const {
  assert(id < db_->size());
  return rates_.empty() ? uniform_rate_ : rates_[id];
}

ItemId UpdateGenerator::SampleItem() {
  if (rates_.empty()) {
    return static_cast<ItemId>(rng_.NextUint64(db_->size()));
  }
  return CdfPick(rate_cdf_, rng_.NextDouble() * total_rate_);
}

void UpdateGenerator::RefillLookahead() {
  // Only called with the queue fully consumed; the last decoded time (the
  // just-applied tail) anchors the new block's accumulation chain.
  assert(look_pos_ == look_len_ && look_len_ >= 1);
  Rng rng = rng_;  // draw through a register-resident copy
  uint64_t* const raw = look_raw_.data();
  ItemId* const items = look_item_.data();
  // Pass 1: raw draws in stream order — gap bits, then the item draw, one
  // pair per future update. The profile is chosen once per block, outside
  // the per-pair loop. NextUint64's rare rejection redraws stay inside the
  // pair, exactly where the on-demand order has them. The slab line each
  // item will dirty is known a whole block before the apply loop reaches
  // it — enough lead time for a far (T1-hint) prefetch to land without
  // evicting the apply loop's L1 working set.
  if (rate_cdf_.empty()) {
    const uint64_t n = db_->size();
    for (size_t j = 0; j < kLookahead; ++j) {
      raw[j] = rng.NextBits();
      items[j] = static_cast<ItemId>(rng.NextUint64(n));
      db_->PrefetchItemFar(items[j]);
    }
  } else {
    const double total = total_rate_;
    for (size_t j = 0; j < kLookahead; ++j) {
      raw[j] = rng.NextBits();
      items[j] = CdfPick(rate_cdf_, rng.NextDouble() * total);
      db_->PrefetchItemFar(items[j]);
    }
  }
  rng_ = rng;
  // Pass 2: decode the gaps and accumulate absolute event times. Identical
  // arithmetic to Exponential(rate) on the same bits — u = 1 -
  // (bits>>11)*2^-53, gap = -log(u)/rate — so every decoded time is
  // bit-identical to an on-demand draw; the log calls still pipeline
  // back-to-back (each accumulate only waits on its own log result).
  double* const times = look_time_.data();
  const double rate = total_rate_;
  double t = times[look_len_ - 1];
  for (size_t j = 0; j < kLookahead; ++j) {
    const double u = 1.0 - static_cast<double>(raw[j] >> 11) * 0x1.0p-53;
    t += -std::log(u) / rate;
    times[j] = t;
  }
  look_pos_ = 0;
  look_len_ = kLookahead;
}

void UpdateGenerator::GenerateIntervalUpdates(SimTime through, bool inclusive) {
  if (!active_ || total_rate_ <= 0.0) return;
  const SimTime head = look_time_[look_pos_];
  if (inclusive ? head > through : head >= through) return;
  WallTimer timer(&update_wall_seconds_);
  // The queue [look_pos_, look_len_) is drawn-but-unapplied with absolute
  // times; each due run feeds ApplyUpdateBatch directly from the lookahead
  // arrays.
  for (;;) {
    const double* const times = look_time_.data();
    size_t end = look_pos_;
    while (end < look_len_ &&
           (inclusive ? times[end] <= through : times[end] < through)) {
      ++end;
    }
    if (end > look_pos_) {
      const size_t count = end - look_pos_;
      db_->ApplyUpdateBatch(look_item_.data() + look_pos_, times + look_pos_,
                            count);
      updates_generated_ += count;
      look_pos_ = end;
    }
    if (look_pos_ < look_len_) break;  // head exists and is not due
    RefillLookahead();
  }
  // The pending pair outlives the pump; give its slab line the span until
  // the next pump point to arrive.
  db_->PrefetchItem(look_item_[look_pos_]);
}

std::vector<double> ZipfUpdateRates(uint64_t n, double mu_mean, double theta) {
  assert(n >= 1);
  std::vector<double> rates(n);
  double norm = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    rates[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta);
    norm += rates[i];
  }
  const double scale = mu_mean * static_cast<double>(n) / norm;
  for (auto& r : rates) r *= scale;
  return rates;
}

}  // namespace mobicache
