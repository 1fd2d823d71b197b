#include "sig/signature.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

#include "util/random.h"
#include "util/simd.h"

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
  row_words_ = (static_cast<size_t>(params_.m) + 63) / 64;
  global_threshold_ = params_.k_threshold *
                      ValidItemMismatchProbability(params_.f, params_.g) *
                      static_cast<double>(params_.m);
}

uint64_t SignatureFamily::ItemSignature(uint64_t value) const {
  uint64_t state = value ^ seed_ ^ 0xA5A5A5A55A5A5A5AULL;
  return SplitMix64(&state) & sig_mask_;
}

std::vector<uint32_t> SignatureFamily::ComputeSubsetsOf(ItemId item) const {
  // The list form, for tests, tools and cold paths; the simulation reads
  // membership rows or streams through ForEachSubsetOf.
  std::vector<uint32_t> out;
  out.reserve(static_cast<size_t>(member_prob_ * params_.m * 1.5) + 4);
  ForEachSubsetOf(item, [&out](uint32_t j) { out.push_back(j); });
  return out;
}

bool SignatureFamily::Contains(uint32_t subset, ItemId item) const {
  bool found = false;
  ForEachSubsetOf(item, [&](uint32_t j) { found = found || j == subset; });
  return found;
}

uint32_t SignatureFamily::RowOf(ItemId item) {
  assert(item < n_);
  // The index, the table and the counts grow until every item the views
  // diagnose has a row, then stay put.
  if (row_of_.empty()) row_of_.assign(n_, kNoRow);
  if (row_of_[item] != kNoRow) return row_of_[item] - 1;
  const size_t first = rows_.size();
  rows_.resize(first + row_words_, 0);
  uint64_t* words = rows_.data() + first;
  uint32_t members = 0;
  ForEachSubsetOf(item, [&](uint32_t j) {
    words[j >> 6] |= uint64_t{1} << (j & 63);
    ++members;
  });
  row_members_.push_back(members);
  row_of_[item] = static_cast<uint32_t>(row_members_.size());
  return row_of_[item] - 1;
}

void SignatureFamily::ExtendSubsetLists(ItemId item) {
  // Set-up only: the server state's initial pass extends the prefix.
  if (list_offsets_.empty()) {
    // Room for every list within the bound, at the expected size plus four
    // standard deviations, so the pass does not copy a growing table.
    const double expected = member_prob_ * static_cast<double>(params_.m);
    const size_t per_item =
        static_cast<size_t>(expected + 4.0 * std::sqrt(expected)) + 2;
    const size_t budget = kMemoBudgetBytes / sizeof(uint32_t);
    const size_t items =
        static_cast<size_t>(std::min<uint64_t>(n_, budget / per_item));
    list_offsets_.reserve(items + 1);
    list_subsets_.reserve(std::min(budget, items * per_item));
    list_offsets_.push_back(0);
  }
  if (item + 1 != list_offsets_.size()) return;
  if ((list_offsets_.size() + list_subsets_.size()) * sizeof(uint32_t) >=
      kMemoBudgetBytes) {
    return;
  }
  ForEachSubsetOf(item, [this](uint32_t j) { list_subsets_.push_back(j); });
  list_offsets_.push_back(static_cast<uint32_t>(list_subsets_.size()));
}

const uint64_t* SignatureFamily::MembershipRow(ItemId item) {
  return RowWords(RowOf(item));
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
  slot.mismatch.resize(row_words_);
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
  has_current_key_ = false;
  Baseline& slot = pool_[current_];
  std::copy(broadcast.begin(), broadcast.end(), slot.signatures.begin());
  slot.refs = 1;  // the family's own reference to the current broadcast
  ++generation_;
  if (previous != kNoBaseline) ReleaseBaseline(previous);
  return current_;
}

SignatureFamily::BaselineId SignatureFamily::InternBroadcast(
    const std::vector<uint64_t>& broadcast, uint64_t key) {
  if (current_ != kNoBaseline && has_current_key_ && key == current_key_) {
    // One report, one broadcast: every unit of a shard hearing the same
    // report lands here without comparing m signatures.
    assert(broadcast.size() == params_.m &&
           std::equal(broadcast.begin(), broadcast.end(),
                      pool_[current_].signatures.begin()));
    return current_;
  }
  const BaselineId id = InternBroadcast(broadcast);
  has_current_key_ = true;
  current_key_ = key;
  return id;
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
    // word like the membership rows it is ANDed with.
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

ServerSignatureState::ServerSignatureState(SignatureFamily* family,
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
    family_->ExtendSubsetLists(id);
    if (IsExcluded(id)) continue;
    const uint64_t sig = family_->ItemSignature(db_->ValueOf(id));
    incorporated_[i] = sig;
    Fold(id, sig);
  }
}

bool ServerSignatureState::IsExcluded(ItemId id) const {
  return std::binary_search(excluded_.begin(), excluded_.end(), id);
}

void ServerSignatureState::Fold(ItemId item, uint64_t delta) {
  const uint32_t* begin = nullptr;
  const uint32_t* end = nullptr;
  if (family_->SubsetList(item, &begin, &end)) {
    for (const uint32_t* j = begin; j != end; ++j) combined_[*j] ^= delta;
  } else {
    family_->ForEachSubsetOf(item, [&](uint32_t j) { combined_[j] ^= delta; });
  }
}

void ServerSignatureState::OnItemChanged(ItemId id) {
  assert(id < incorporated_.size());
  if (IsExcluded(id)) return;
  const uint64_t fresh = family_->ItemSignature(db_->ValueOf(id));
  const uint64_t delta = fresh ^ incorporated_[id];
  if (delta == 0) return;
  Fold(id, delta);
  incorporated_[id] = fresh;
}

ClientSignatureView::ClientSignatureView(SignatureFamily* family,
                                         std::vector<ItemId> interest)
    : family_(family), interest_(std::move(interest)) {}

ClientSignatureView::~ClientSignatureView() {
  if (has_baseline()) family_->ReleaseBaseline(baseline_);
}

size_t ClientSignatureView::cached_signature_count() const {
  std::vector<uint64_t> covered(family_->row_words(), 0);
  for (ItemId item : interest_) {
    const uint64_t* row = family_->MembershipRow(item);
    for (size_t w = 0; w < covered.size(); ++w) covered[w] |= row[w];
  }
  size_t count = 0;
  for (uint64_t word : covered) {
    count += static_cast<size_t>(std::popcount(word));
  }
  return count;
}

std::vector<ItemId>& ClientSignatureView::DiagnoseAndAdopt(
    const std::vector<uint64_t>& broadcast,
    const std::vector<ItemId>& cached_items) {
  return Diagnose(family_->InternBroadcast(broadcast), cached_items);
}

std::vector<ItemId>& ClientSignatureView::DiagnoseAndAdopt(
    const std::vector<uint64_t>& broadcast, uint64_t report_key,
    const std::vector<ItemId>& cached_items) {
  return Diagnose(family_->InternBroadcast(broadcast, report_key),
                  cached_items);
}

std::vector<ItemId>& ClientSignatureView::Diagnose(
    SignatureFamily::BaselineId current,
    const std::vector<ItemId>& cached_items) {
  // The family's scratch keeps the capacity of the longest list any of its
  // views returned, so a warm diagnosis does not allocate.
  std::vector<ItemId>& invalid = family_->invalid_;
  invalid.clear();
  if (!has_baseline()) {
    // Nothing to compare against yet: conservatively treat every cached item
    // as suspect and adopt this broadcast as the baseline.
    invalid.assign(cached_items.begin(), cached_items.end());
  } else if (baseline_ != current) {
    // Cached items lie in the interest set, so the count touches only the
    // subsets a per-client copy would have held: popcount(mismatch AND row),
    // a few words per item.
    const uint64_t* mismatch = family_->MismatchWords(baseline_);
    const SignatureParams& params = family_->params();
    const double global_threshold = family_->MismatchThreshold();
    const size_t words = family_->row_words();
    for (ItemId item : cached_items) {
      const uint32_t row = family_->RowOf(item);
      const uint64_t count =
          simd::AndPopcount(mismatch, family_->RowWords(row), words);
      const double threshold =
          params.per_item_threshold
              ? params.gamma *
                    static_cast<double>(family_->row_members_[row])
              : global_threshold;
      // Sized by actual mismatches, empty on the (overwhelmingly common)
      // clean report. detlint:allow(alloc-event-path)
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
