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
// place": both server and clients can enumerate an item's subsets without
// communicating. Each party stores the memberships it revisits, in the
// shape its loop reads: clients keep an m-bit membership row per item they
// have diagnosed, so a mismatch count is popcount(mismatch AND row); the
// server keeps ascending subset lists, which its XOR fold scatters through,
// for as many items as a byte bound allows.

#ifndef MOBICACHE_SIG_SIGNATURE_H_
#define MOBICACHE_SIG_SIGNATURE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "db/database.h"
#include "util/random.h"
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
/// The family is also the per-cell (in MegaCell, per-shard) state host, and
/// is not thread-safe. It holds:
///  * one flat table of membership rows, ceil(m/64) words each, indexed
///    through a dense per-item row index. An item's row is added and filled
///    from the subset stream the first time a view diagnoses it, so view
///    construction does no work on the family.
///  * the server's subset lists: one flat CSR table (offsets plus subset
///    ids) over an item prefix [0, k), appended by the server state's
///    initial pass until the table reaches kMemoBudgetBytes. Scattering an
///    XOR through a list beats decoding a bit row, whose per-word bit loop
///    exits at an unpredictable count.
///  * the broadcasts its client views adopt as baselines. Every view that
///    last heard broadcast h holds exactly broadcast h, so the family stores
///    each distinct broadcast once in a refcounted pool, with freed slots
///    recycled through a free list, and views keep only a handle. For the
///    current broadcast it memoizes one m-bit mismatch bitmap per live
///    baseline, so a report's syndrome against a given baseline is built
///    once no matter how many views hold that baseline.
///  * one invalid-id scratch list that every view's diagnosis fills.
class SignatureFamily {
 public:
  /// `n` >= 1, 1 <= g <= 64, m >= 1, f >= 1.
  SignatureFamily(uint64_t n, SignatureParams params, uint64_t seed);

  /// g-bit signature of an item value.
  uint64_t ItemSignature(uint64_t value) const;

  /// Calls `visit(j)` for each subset index j containing `item`, ascending;
  /// expected m/(f+1) calls. Deterministic: the geometric skipping stream,
  /// one log per member, with no storage.
  template <typename Visit>
  void ForEachSubsetOf(ItemId item, Visit&& visit) const {
    // Each subset contains `item` independently with probability 1/(f+1);
    // the gap between consecutive member indices is geometric. The stream
    // is a pure function of (seed, item), so all parties agree on the
    // family without communication.
    uint64_t state = seed_ ^ (0x6C62272E07BB0142ULL * (item + 1));
    double j = -1.0;
    while (true) {
      // u in (0, 1]: avoids log(0).
      const double u =
          (static_cast<double>(SplitMix64(&state) >> 11) + 1.0) *
          0x1.0p-53;
      j += 1.0 + std::floor(std::log(u) / log1m_member_);
      if (j >= static_cast<double>(params_.m)) break;
      visit(static_cast<uint32_t>(j));
    }
  }

  /// ForEachSubsetOf collected into a list (ascending). Allocates; for
  /// tests, tools and cold paths.
  std::vector<uint32_t> ComputeSubsetsOf(ItemId item) const;

  /// Whether subset `j` contains `item` (consistent with ForEachSubsetOf).
  bool Contains(uint32_t subset, ItemId item) const;

  /// Words per membership row: ceil(m / 64).
  size_t row_words() const { return row_words_; }

  /// `item`'s membership row (bit j of word j/64 set iff subset j contains
  /// the item), added and filled on first use. Valid until a row is next
  /// added to the table.
  const uint64_t* MembershipRow(ItemId item);

  /// Rows in the table.
  size_t row_count() const { return row_members_.size(); }

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
  // Rows, the baseline pool and the invalid scratch are driven only by the
  // server state and the client views.
  friend class ServerSignatureState;
  friend class ClientSignatureView;

  /// Handle of an interned broadcast in the baseline pool.
  using BaselineId = uint32_t;
  static constexpr BaselineId kNoBaseline = ~BaselineId{0};
  /// row_of_ entry of an item without a row (row r is stored as r + 1).
  static constexpr uint32_t kNoRow = 0;

  /// Row index of `item`, adding and filling the row on first use. No byte
  /// bound: clients diagnose only their interest items, so the table is
  /// bounded by the union of the views' interest sets.
  uint32_t RowOf(ItemId item);

  const uint64_t* RowWords(uint32_t row) const {
    return rows_.data() + static_cast<size_t>(row) * row_words_;
  }

  /// Appends `item`'s subset list when the list prefix ends just before it
  /// and the table is still under kMemoBudgetBytes (the last list appended
  /// may cross it); otherwise does nothing.
  void ExtendSubsetLists(ItemId item);

  /// [*begin, *end) = `item`'s subset list; false past the list prefix.
  bool SubsetList(ItemId item, const uint32_t** begin,
                  const uint32_t** end) const {
    if (static_cast<size_t>(item) + 1 >= list_offsets_.size()) return false;
    *begin = list_subsets_.data() + list_offsets_[item];
    *end = list_subsets_.data() + list_offsets_[item + 1];
    return true;
  }

  /// Makes `broadcast` (m signatures) the current broadcast and returns its
  /// handle. A broadcast equal to the current one keeps the current handle;
  /// any other is copied into a pool slot, which starts a new mismatch memo
  /// generation. The family holds one reference to the current broadcast
  /// until the next different one arrives.
  BaselineId InternBroadcast(const std::vector<uint64_t>& broadcast);

  /// InternBroadcast keyed by the report that carried the broadcast (its
  /// interval): a report sends one broadcast, so a key equal to the current
  /// broadcast's returns its handle without comparing content. Any other
  /// key takes the content path above.
  BaselineId InternBroadcast(const std::vector<uint64_t>& broadcast,
                             uint64_t key);

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
  size_t row_words_;        // ceil(m / 64)

  // Membership rows (see the class comment).
  std::vector<uint32_t> row_of_;       // per item, sized n on first use
  std::vector<uint64_t> rows_;         // row_count() * row_words_ words
  std::vector<uint32_t> row_members_;  // per row: the item's subset count

  // Server subset lists (see the class comment). Families over huge item
  // spaces stop the prefix at the byte bound and stream the items past it.
  static constexpr size_t kMemoBudgetBytes = 64u << 20;
  std::vector<uint32_t> list_offsets_;  // prefix length + 1 entries, or none
  std::vector<uint32_t> list_subsets_;

  double global_threshold_ = 0.0;  // K * p * m, see MismatchThreshold()

  // Baseline pool (see the class comment).
  std::vector<Baseline> pool_;
  std::vector<BaselineId> free_slots_;
  BaselineId current_ = kNoBaseline;
  bool has_current_key_ = false;  // current_ was interned under current_key_
  uint64_t current_key_ = 0;
  uint64_t generation_ = 0;  // bumped whenever current_ changes

  // Diagnosis output, shared by every view of this family.
  std::vector<ItemId> invalid_;
};

/// Server-side incremental maintenance of the m combined signatures. XORs
/// item-signature deltas in as items change, so a report snapshot is O(m)
/// and an update is O(m/(f+1)) instead of O(n*m).
class ServerSignatureState {
 public:
  /// Builds combined signatures of the database's current contents: one
  /// pass over the items, each streamed once into the family's subset lists
  /// while their byte bound allows, so later folds of the item read the
  /// list. Items past the bound are folded straight from the stream.
  /// `excluded` (optional, sorted) lists items that do NOT participate in
  /// the signatures — the hybrid scheme's individually-broadcast hot set.
  ServerSignatureState(SignatureFamily* family, const Database* db,
                       const std::vector<ItemId>* excluded = nullptr);

  /// Must be called (once) for each item whose value changed since the last
  /// call, *after* the database was updated. Folds the delta into every
  /// subset containing the item, through its subset list or else the
  /// subset stream; excluded items are ignored.
  void OnItemChanged(ItemId id);

  /// The current m combined signatures (one g-bit value per subset).
  const std::vector<uint64_t>& Combined() const { return combined_; }

 private:
  bool IsExcluded(ItemId id) const;

  /// combined_[j] ^= delta for every subset j containing `item`.
  void Fold(ItemId item, uint64_t delta);

  SignatureFamily* family_;
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
/// cached items, which must be a subset of it. An item's count is
/// popcount(mismatch AND row) over its membership row in the family.
///
/// A view releases its baseline when destroyed, so the family must outlive
/// every view built on it.
class ClientSignatureView {
 public:
  /// `interest` is the item set this client may cache (its hot spot). O(1)
  /// beyond copying the interest list: an item's membership row is built
  /// when the item is first diagnosed.
  ClientSignatureView(SignatureFamily* family, std::vector<ItemId> interest);
  ~ClientSignatureView();

  ClientSignatureView(const ClientSignatureView&) = delete;
  ClientSignatureView& operator=(const ClientSignatureView&) = delete;

  /// Diagnoses `cached_items` (a subset of the interest set) against a fresh
  /// broadcast of all m combined signatures. Returns the items whose count
  /// of mismatching subsets exceeds the threshold (the set T of §3.3), in
  /// `cached_items` order; on the first report, every cached item.
  /// Afterwards the broadcast becomes this client's stored baseline. The
  /// list is the family's scratch, which the caller may reorder: it stays
  /// valid until the next diagnosis by any view of the family.
  std::vector<ItemId>& DiagnoseAndAdopt(
      const std::vector<uint64_t>& broadcast,
      const std::vector<ItemId>& cached_items);

  /// DiagnoseAndAdopt of the broadcast carried by report `report_key` (its
  /// interval). A cell sends one broadcast per report, so a key equal to
  /// the family's current one reuses that baseline without comparing
  /// content; any other key is interned by content, as above.
  std::vector<ItemId>& DiagnoseAndAdopt(
      const std::vector<uint64_t>& broadcast, uint64_t report_key,
      const std::vector<ItemId>& cached_items);

  /// Number of subset signatures the paper's client retains: the distinct
  /// subsets covering the interest set. Computed on demand (builds the
  /// interest items' rows).
  size_t cached_signature_count() const;

  /// Whether the client has adopted at least one broadcast yet.
  bool has_baseline() const {
    return baseline_ != SignatureFamily::kNoBaseline;
  }

 private:
  /// Diagnosis against interned broadcast `current`, then adoption.
  std::vector<ItemId>& Diagnose(SignatureFamily::BaselineId current,
                                const std::vector<ItemId>& cached_items);

  SignatureFamily* family_;
  std::vector<ItemId> interest_;
  SignatureFamily::BaselineId baseline_ = SignatureFamily::kNoBaseline;
};

}  // namespace mobicache

#endif  // MOBICACHE_SIG_SIGNATURE_H_
