// Signature substrate for the SIG strategy (paper §3.3), following the
// randomized file-comparison schemes of Barbará & Lipton (1991) and
// Rangarajan & Fussell (1991), adapted to partial caches:
//
//  * every item value has a g-bit signature;
//  * there are m pseudo-random subsets S_1..S_m of the item space, each item
//    belonging to S_j independently with probability 1/(f+1);
//  * a combined signature of a subset is the XOR of its members' signatures;
//  * the server broadcasts all m combined signatures; a client counts, for
//    each cached item, how many of its subsets' signatures mismatch, and
//    invalidates items above the threshold m * delta_f, delta_f = K * p with
//    p = (1/(f+1)) * (1 - 1/e) (approximately; see Eq. 21).
//
// Subset membership is a deterministic pseudo-random function of
// (family seed, item), "agreed on before any exchange of information takes
// place": both server and clients can enumerate SubsetsOf(item) without
// communicating, and no membership tables are stored.

#ifndef MOBICACHE_SIG_SIGNATURE_H_
#define MOBICACHE_SIG_SIGNATURE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "util/status.h"

namespace mobicache {

/// Parameters of a signature scheme instance.
struct SignatureParams {
  uint32_t m = 0;     ///< Number of combined signatures broadcast per report.
  uint32_t f = 10;    ///< Differences the scheme is designed to diagnose.
  uint32_t g = 16;    ///< Bits per (combined) signature.
  /// K in the threshold delta_f = K * p. False-alarm control needs K > 1;
  /// detecting genuinely changed items needs K * (1 - 1/e) < 1, i.e.
  /// K < ~1.58 (the paper's "K = 2" appears only in the conservative sizing
  /// bound of Eq. 24, not as an operating threshold). Default 1.25.
  double k_threshold = 1.25;
  /// Extension: compare each item's mismatch count against a fraction gamma
  /// of *its own* subset count instead of the paper's global K*p*m. A
  /// changed item mismatches ~100% of its subsets while a valid one
  /// mismatches ~(1 - 1/e) of them, so gamma in (0.63, 1) separates the two
  /// without the binomial-tail false-valids the global threshold admits.
  bool per_item_threshold = false;
  double gamma = 0.8;
};

/// Membership probability p_member = 1/(f+1) of an item in one subset.
double SubsetMembershipProbability(uint32_t f);

/// Probability p (Eq. 21) that a *valid* cached item participates in a
/// mismatching combined signature when f items genuinely changed:
/// p = (1/(f+1)) * (1 - (1 - 1/(f+1))^f) * (1 - 2^-g)  ~=  (1/(f+1))(1 - 1/e).
double ValidItemMismatchProbability(uint32_t f, uint32_t g);

/// Chernoff bound (Eq. 22) on the per-item false-alarm probability:
/// Pr[X > K m p] <= exp(-(K-1)^2 m p / 3).
double FalseAlarmProbabilityBound(uint32_t m, uint32_t f, uint32_t g,
                                  double k_threshold);

/// General sizing (Eq. 23): smallest m such that the probability that any of
/// ~n valid cached items is falsely diagnosed stays below `delta`:
/// m >= 3 (ln(1/delta) + ln(n)) / (p (K-1)^2).
uint32_t RequiredSignatures(uint64_t n, uint32_t f, uint32_t g, double delta,
                            double k_threshold);

/// The paper's simplified sizing (Eq. 24, K = 2):
/// m >= 6 (f+1) (ln(1/delta) + ln(n)).
uint32_t PaperRequiredSignatures(uint64_t n, uint32_t f, double delta);

/// A family of m pseudo-random subsets over items [0, n) plus the g-bit
/// item-signature function. The math is immutable and shared between the
/// server and all clients (it is "universally known").
///
/// The family is also the per-cell (in MegaCell, per-shard) memo host, and
/// like the SubsetsOf memo it is not thread-safe. Besides subset lists it
/// interns the broadcasts its client views adopt as baselines. Every view
/// that last heard broadcast h holds exactly broadcast h, so the family
/// stores each distinct broadcast once in a refcounted pool, with freed
/// slots recycled through a free list, and views keep only a handle. For
/// the current broadcast it memoizes one m-bit mismatch bitmap per live
/// baseline, so a report's syndrome against a given baseline is built once
/// no matter how many views hold that baseline.
class SignatureFamily {
 public:
  /// `n` >= 1, 1 <= g <= 64, m >= 1, f >= 1.
  SignatureFamily(uint64_t n, SignatureParams params, uint64_t seed);

  /// g-bit signature of an item value.
  uint64_t ItemSignature(uint64_t value) const;

  /// Indices (ascending) of the subsets containing `item`; expected size
  /// m/(f+1). Deterministic. The first call per item generates the list via
  /// geometric skipping (O(expected size), with a log per member); repeat
  /// calls return a memoized copy, so the server's per-update fold and the
  /// clients' per-report diagnosis stop regenerating the stream. The memo is
  /// byte-budgeted (families over huge item spaces fall back to a scratch
  /// buffer once the budget is spent), and the returned reference is valid
  /// until the next SubsetsOf() call on this family. Not thread-safe: each
  /// simulation cell owns its family; do not share one instance across
  /// concurrently running cells.
  const std::vector<uint32_t>& SubsetsOf(ItemId item) const;

  /// Uncached SubsetsOf: always regenerates the geometric stream. Exposed so
  /// tests can check memo consistency and benches can time the cold path.
  std::vector<uint32_t> ComputeSubsetsOf(ItemId item) const;

  /// Whether subset `j` contains `item` (consistent with SubsetsOf).
  bool Contains(uint32_t subset, ItemId item) const;

  /// Invalidations threshold: a cached item is diagnosed invalid when it
  /// belongs to strictly more than this many mismatching subsets.
  double MismatchThreshold() const { return global_threshold_; }

  uint64_t n() const { return n_; }
  const SignatureParams& params() const { return params_; }
  /// Size in bits of one broadcast of all m combined signatures.
  uint64_t ReportBits() const {
    return static_cast<uint64_t>(params_.m) * params_.g;
  }

  /// Distinct broadcasts currently held by views or as the current one.
  size_t live_baselines() const { return pool_.size() - free_slots_.size(); }

 private:
  // The baseline pool is driven only by ClientSignatureView.
  friend class ClientSignatureView;

  /// Handle of an interned broadcast in the baseline pool.
  using BaselineId = uint32_t;
  static constexpr BaselineId kNoBaseline = ~BaselineId{0};

  /// Makes `broadcast` (m signatures) the current broadcast and returns its
  /// handle. A broadcast equal to the current one keeps the current handle;
  /// any other is copied into a pool slot, which starts a new mismatch memo
  /// generation. The family holds one reference to the current broadcast
  /// until the next different one arrives.
  BaselineId InternBroadcast(const std::vector<uint64_t>& broadcast);

  /// Takes / drops one reference to an interned broadcast. A slot whose
  /// count reaches zero goes back to the free list.
  void RetainBaseline(BaselineId id);
  void ReleaseBaseline(BaselineId id);

  /// Bitmap over the m subsets (ceil(m/64) words, bit j of word j/64) of the
  /// subsets whose signature in `baseline` differs from the current
  /// broadcast. Built on the first call per baseline per current broadcast;
  /// valid until the next InternBroadcast() call.
  const uint64_t* MismatchWords(BaselineId baseline);

  /// One interned broadcast and its memoized mismatch bitmap against the
  /// current broadcast (valid while `mismatch_generation` == generation_).
  struct Baseline {
    std::vector<uint64_t> signatures;
    std::vector<uint64_t> mismatch;
    uint64_t mismatch_generation = 0;
    uint32_t refs = 0;
  };

  /// Pops a free slot, growing the pool when none is free.
  BaselineId AcquireSlot();

  uint64_t n_;
  SignatureParams params_;
  uint64_t seed_;
  uint64_t sig_mask_;       // low-g-bits mask
  double member_prob_;      // 1/(f+1)
  double log1m_member_;     // ln(1 - member_prob_), for geometric skipping

  // SubsetsOf memo (see its doc comment). memo_bytes_ tracks the payload of
  // memo_ against kMemoBudgetBytes; scratch_ serves items past the budget.
  static constexpr size_t kMemoBudgetBytes = 64u << 20;
  mutable std::unordered_map<ItemId, std::vector<uint32_t>> memo_;
  mutable std::vector<uint32_t> scratch_;
  mutable size_t memo_bytes_ = 0;

  double global_threshold_ = 0.0;  // K * p * m, see MismatchThreshold()

  // Baseline pool (see the class comment).
  std::vector<Baseline> pool_;
  std::vector<BaselineId> free_slots_;
  BaselineId current_ = kNoBaseline;
  uint64_t generation_ = 0;  // bumped whenever current_ changes
};

/// Server-side incremental maintenance of the m combined signatures. XORs
/// item-signature deltas in as items change, so a report snapshot is O(m)
/// and an update is O(m/(f+1)) instead of O(n*m).
class ServerSignatureState {
 public:
  /// Builds combined signatures of the database's current contents.
  /// `excluded` (optional, sorted) lists items that do NOT participate in
  /// the signatures — the hybrid scheme's individually-broadcast hot set.
  ServerSignatureState(const SignatureFamily* family, const Database* db,
                       const std::vector<ItemId>* excluded = nullptr);

  /// Must be called (once) for each item whose value changed since the last
  /// call, *after* the database was updated. Folds the delta into every
  /// subset containing the item; excluded items are ignored.
  void OnItemChanged(ItemId id);

  /// The current m combined signatures (one g-bit value per subset).
  const std::vector<uint64_t>& Combined() const { return combined_; }

 private:
  bool IsExcluded(ItemId id) const;

  const SignatureFamily* family_;
  const Database* db_;
  std::vector<ItemId> excluded_;         // sorted; empty = none
  std::vector<uint64_t> combined_;       // m combined signatures
  std::vector<uint64_t> incorporated_;   // last item signature folded in, per item
};

/// Client-side diagnosis state: a handle to the broadcast this MU last
/// heard, interned in the family's baseline pool. The paper's client keeps
/// only the combined signatures of the subsets covering its items of
/// interest; those are exactly that broadcast restricted to the interest
/// set, so the view stores the interest list and counts only subsets of
/// cached items, which must be a subset of it.
///
/// A view releases its baseline when destroyed, so the family must outlive
/// every view built on it.
class ClientSignatureView {
 public:
  /// `interest` is the item set this client may cache (its hot spot). O(1)
  /// beyond copying the interest list: nothing is expanded until a report
  /// is diagnosed.
  ClientSignatureView(SignatureFamily* family, std::vector<ItemId> interest);
  ~ClientSignatureView();

  ClientSignatureView(const ClientSignatureView&) = delete;
  ClientSignatureView& operator=(const ClientSignatureView&) = delete;

  /// Diagnoses `cached_items` (a subset of the interest set) against a fresh
  /// broadcast of all m combined signatures. Returns the items whose count
  /// of mismatching subsets exceeds the threshold (the set T of §3.3), in
  /// `cached_items` order; on the first report, every cached item.
  /// Afterwards the broadcast becomes this client's stored baseline.
  std::vector<ItemId> DiagnoseAndAdopt(
      const std::vector<uint64_t>& broadcast,
      const std::vector<ItemId>& cached_items);

  /// Number of subset signatures the paper's client retains: the distinct
  /// subsets covering the interest set. Computed on demand.
  size_t cached_signature_count() const;

  /// Whether the client has adopted at least one broadcast yet.
  bool has_baseline() const {
    return baseline_ != SignatureFamily::kNoBaseline;
  }

 private:
  SignatureFamily* family_;
  std::vector<ItemId> interest_;
  SignatureFamily::BaselineId baseline_ = SignatureFamily::kNoBaseline;
};

}  // namespace mobicache

#endif  // MOBICACHE_SIG_SIGNATURE_H_
