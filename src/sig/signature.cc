#include "sig/signature.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "util/random.h"

namespace mobicache {

double SubsetMembershipProbability(uint32_t f) {
  assert(f >= 1);
  return 1.0 / (static_cast<double>(f) + 1.0);
}

double ValidItemMismatchProbability(uint32_t f, uint32_t g) {
  const double q = SubsetMembershipProbability(f);
  const double sig_collision = std::pow(2.0, -static_cast<double>(g));
  // Eq. 21: member * (some changed item in the set and its signature shows)
  return q * (1.0 - std::pow(1.0 - q, static_cast<double>(f))) *
         (1.0 - sig_collision);
}

double FalseAlarmProbabilityBound(uint32_t m, uint32_t f, uint32_t g,
                                  double k_threshold) {
  const double p = ValidItemMismatchProbability(f, g);
  const double km1 = k_threshold - 1.0;
  // Eq. 22 (Chernoff): Pr[X > K m p] <= exp(-(K-1)^2 m p / 3).
  return std::exp(-km1 * km1 * static_cast<double>(m) * p / 3.0);
}

uint32_t RequiredSignatures(uint64_t n, uint32_t f, uint32_t g, double delta,
                            double k_threshold) {
  assert(n >= 1);
  assert(delta > 0.0 && delta < 1.0);
  assert(k_threshold > 1.0);
  const double p = ValidItemMismatchProbability(f, g);
  const double km1 = k_threshold - 1.0;
  // Eq. 23: m >= 3 (ln(1/delta) + ln(n)) / (p (K-1)^2).
  const double m = 3.0 *
                   (std::log(1.0 / delta) + std::log(static_cast<double>(n))) /
                   (p * km1 * km1);
  return static_cast<uint32_t>(std::ceil(m));
}

uint32_t PaperRequiredSignatures(uint64_t n, uint32_t f, double delta) {
  assert(n >= 1);
  assert(delta > 0.0 && delta < 1.0);
  // Eq. 24: m >= 6 (f+1) (ln(1/delta) + ln(n)).
  const double m = 6.0 * (static_cast<double>(f) + 1.0) *
                   (std::log(1.0 / delta) + std::log(static_cast<double>(n)));
  return static_cast<uint32_t>(std::ceil(m));
}

SignatureFamily::SignatureFamily(uint64_t n, SignatureParams params,
                                 uint64_t seed)
    : n_(n), params_(params), seed_(seed) {
  assert(n >= 1);
  assert(params_.m >= 1);
  assert(params_.f >= 1);
  assert(params_.g >= 1 && params_.g <= 64);
  assert(params_.k_threshold >= 0.0 && params_.gamma >= 0.0);
  sig_mask_ = params_.g == 64 ? ~0ULL : ((1ULL << params_.g) - 1);
  member_prob_ = SubsetMembershipProbability(params_.f);
  log1m_member_ = std::log1p(-member_prob_);
  global_threshold_ = params_.k_threshold *
                      ValidItemMismatchProbability(params_.f, params_.g) *
                      static_cast<double>(params_.m);
}

uint64_t SignatureFamily::ItemSignature(uint64_t value) const {
  uint64_t state = value ^ seed_ ^ 0xA5A5A5A55A5A5A5AULL;
  return SplitMix64(&state) & sig_mask_;
}

std::vector<uint32_t> SignatureFamily::ComputeSubsetsOf(ItemId item) const {
  // Runs once per item: SubsetsOf memoizes the result (under
  // kMemoBudgetBytes), so steady-state queries never reach this.
  // detlint:allow-function(alloc-event-path)
  // Geometric skipping over subset indices: each subset contains `item`
  // independently with probability 1/(f+1); the gap between consecutive
  // member indices is geometric. The stream is a pure function of
  // (seed, item), so all parties agree on the family without communication.
  std::vector<uint32_t> out;
  out.reserve(static_cast<size_t>(member_prob_ * params_.m * 1.5) + 4);
  uint64_t state = seed_ ^ (0x6C62272E07BB0142ULL * (item + 1));
  double j = -1.0;
  while (true) {
    // u in (0, 1]: avoids log(0).
    const double u =
        (static_cast<double>(SplitMix64(&state) >> 11) + 1.0) * 0x1.0p-53;
    j += 1.0 + std::floor(std::log(u) / log1m_member_);
    if (j >= static_cast<double>(params_.m)) break;
    out.push_back(static_cast<uint32_t>(j));
  }
  return out;
}

const std::vector<uint32_t>& SignatureFamily::SubsetsOf(ItemId item) const {
  const auto it = memo_.find(item);
  if (it != memo_.end()) return it->second;
  std::vector<uint32_t> subsets = ComputeSubsetsOf(item);
  const size_t bytes = subsets.capacity() * sizeof(uint32_t);
  if (memo_bytes_ + bytes <= kMemoBudgetBytes) {
    memo_bytes_ += bytes;
    // One-time memo insertion per item, capped by kMemoBudgetBytes.
    // detlint:allow(alloc-event-path)
    return memo_.emplace(item, std::move(subsets)).first->second;
  }
  scratch_ = std::move(subsets);
  return scratch_;
}

bool SignatureFamily::Contains(uint32_t subset, ItemId item) const {
  const std::vector<uint32_t>& subsets = SubsetsOf(item);
  return std::binary_search(subsets.begin(), subsets.end(), subset);
}

SignatureFamily::BaselineId SignatureFamily::AcquireSlot() {
  if (!free_slots_.empty()) {
    const BaselineId id = free_slots_.back();
    free_slots_.pop_back();
    return id;
  }
  // The pool grows to the peak number of distinct live baselines (bounded
  // by the reports heard); freed slots are recycled above with their
  // buffers' capacity. detlint:allow(alloc-event-path)
  pool_.emplace_back();
  Baseline& slot = pool_.back();
  // A new slot's buffers. detlint:allow(alloc-event-path)
  slot.signatures.resize(params_.m);
  // detlint:allow(alloc-event-path)
  slot.mismatch.resize((params_.m + 63) / 64);
  // Grows with the pool, so a release never allocates.
  // detlint:allow(alloc-event-path)
  free_slots_.reserve(pool_.size());
  return static_cast<BaselineId>(pool_.size() - 1);
}

SignatureFamily::BaselineId SignatureFamily::InternBroadcast(
    const std::vector<uint64_t>& broadcast) {
  assert(broadcast.size() == params_.m);
  if (current_ != kNoBaseline &&
      std::equal(broadcast.begin(), broadcast.end(),
                 pool_[current_].signatures.begin())) {
    return current_;
  }
  const BaselineId previous = current_;
  current_ = AcquireSlot();
  Baseline& slot = pool_[current_];
  std::copy(broadcast.begin(), broadcast.end(), slot.signatures.begin());
  slot.refs = 1;  // the family's own reference to the current broadcast
  ++generation_;
  if (previous != kNoBaseline) ReleaseBaseline(previous);
  return current_;
}

void SignatureFamily::RetainBaseline(BaselineId id) {
  assert(id < pool_.size() && pool_[id].refs > 0);
  ++pool_[id].refs;
}

void SignatureFamily::ReleaseBaseline(BaselineId id) {
  assert(id < pool_.size() && pool_[id].refs > 0);
  // AcquireSlot keeps the free list reserved to the pool size, so this
  // never reallocates. detlint:allow(alloc-event-path)
  if (--pool_[id].refs == 0) free_slots_.push_back(id);
}

const uint64_t* SignatureFamily::MismatchWords(BaselineId baseline) {
  assert(current_ != kNoBaseline);
  assert(baseline < pool_.size() && pool_[baseline].refs > 0);
  Baseline& slot = pool_[baseline];
  if (slot.mismatch_generation != generation_) {
    // The alpha_j = 1 entries of §3.3 over all m subsets, packed 64 to a
    // word; diagnosis probes one bit per subset membership.
    const uint64_t* then = slot.signatures.data();
    const uint64_t* now = pool_[current_].signatures.data();
    uint32_t j = 0;
    for (uint64_t& word : slot.mismatch) {
      const uint32_t end = std::min(j + 64, params_.m);
      uint64_t bits = 0;
      for (uint32_t bit = 0; j < end; ++j, ++bit) {
        bits |= static_cast<uint64_t>(then[j] != now[j]) << bit;
      }
      word = bits;
    }
    slot.mismatch_generation = generation_;
  }
  return slot.mismatch.data();
}

ServerSignatureState::ServerSignatureState(const SignatureFamily* family,
                                           const Database* db,
                                           const std::vector<ItemId>* excluded)
    : family_(family), db_(db) {
  if (excluded != nullptr) {
    excluded_ = *excluded;
    assert(std::is_sorted(excluded_.begin(), excluded_.end()));
  }
  combined_.assign(family_->params().m, 0);
  incorporated_.resize(db_->size());
  for (uint64_t i = 0; i < db_->size(); ++i) {
    const ItemId id = static_cast<ItemId>(i);
    if (IsExcluded(id)) continue;
    const uint64_t sig = family_->ItemSignature(db_->ValueOf(id));
    incorporated_[i] = sig;
    for (uint32_t j : family_->SubsetsOf(id)) combined_[j] ^= sig;
  }
}

bool ServerSignatureState::IsExcluded(ItemId id) const {
  return std::binary_search(excluded_.begin(), excluded_.end(), id);
}

void ServerSignatureState::OnItemChanged(ItemId id) {
  assert(id < incorporated_.size());
  if (IsExcluded(id)) return;
  const uint64_t fresh = family_->ItemSignature(db_->ValueOf(id));
  const uint64_t delta = fresh ^ incorporated_[id];
  if (delta == 0) return;
  for (uint32_t j : family_->SubsetsOf(id)) combined_[j] ^= delta;
  incorporated_[id] = fresh;
}

ClientSignatureView::ClientSignatureView(SignatureFamily* family,
                                         std::vector<ItemId> interest)
    : family_(family), interest_(std::move(interest)) {}

ClientSignatureView::~ClientSignatureView() {
  if (has_baseline()) family_->ReleaseBaseline(baseline_);
}

size_t ClientSignatureView::cached_signature_count() const {
  std::vector<bool> seen(family_->params().m, false);
  size_t count = 0;
  for (ItemId item : interest_) {
    for (uint32_t j : family_->SubsetsOf(item)) {
      if (!seen[j]) {
        seen[j] = true;
        ++count;
      }
    }
  }
  return count;
}

std::vector<ItemId> ClientSignatureView::DiagnoseAndAdopt(
    const std::vector<uint64_t>& broadcast,
    const std::vector<ItemId>& cached_items) {
  const SignatureFamily::BaselineId current =
      family_->InternBroadcast(broadcast);
  std::vector<ItemId> invalid;
  if (!has_baseline()) {
    // Nothing to compare against yet: conservatively treat every cached item
    // as suspect and adopt this broadcast as the baseline.
    invalid = cached_items;
  } else if (baseline_ != current) {
    // Cached items lie in the interest set, so counting over SubsetsOf(item)
    // touches only the relevant subsets a per-client copy would have held.
    const uint64_t* mismatch = family_->MismatchWords(baseline_);
    const SignatureParams& params = family_->params();
    const double global_threshold = family_->MismatchThreshold();
    for (ItemId item : cached_items) {
      const std::vector<uint32_t>& subsets = family_->SubsetsOf(item);
      uint32_t count = 0;
      for (uint32_t j : subsets) {
        count += static_cast<uint32_t>((mismatch[j >> 6] >> (j & 63)) & 1);
      }
      const double threshold =
          params.per_item_threshold
              ? params.gamma * static_cast<double>(subsets.size())
              : global_threshold;
      // Diagnosis returns the invalid-id list it builds; it is sized by
      // actual mismatches, empty on the (overwhelmingly common) clean
      // report. detlint:allow(alloc-event-path)
      if (static_cast<double>(count) > threshold) invalid.push_back(item);
    }
  }
  if (baseline_ != current) {
    family_->RetainBaseline(current);
    if (has_baseline()) family_->ReleaseBaseline(baseline_);
    baseline_ = current;
  }
  return invalid;
}

}  // namespace mobicache
