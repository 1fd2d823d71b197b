// detlint's repo-specific checks, run over the two-pass engine (scope.h
// builds per-file indexes, callgraph.h stitches them into a RepoIndex).
// Each check statically enforces one invariant that the goldens
// (tests/golden_equivalence_test.cc, tests/megacell_test.cc,
// tests/sleeper_test.cc) can only falsify after the fact:
//
//   rng-stream-discipline   util::Rng draw calls (NextDouble/Bernoulli/...)
//                           are only sanctioned inside the files that own a
//                           simulation substream; a new consumer anywhere
//                           else could reorder a stream and silently shift
//                           every downstream draw.
//   alloc-event-path        no allocation (new/make_unique/std::function/
//                           growing-container calls) in any function
//                           transitively reachable from a hot root —
//                           Server::Broadcast, Server::Deliver, the batched
//                           update drain — or from a lambda scheduled on
//                           the event loop. The closure replaces the old
//                           hand-maintained hot-function list: a new helper
//                           on the broadcast or skip path inherits the rule
//                           automatically. detlint:allow-function marks a
//                           sanctioned cold crossing (not scanned, not
//                           propagated through).
//   unordered-output        no range-for over unordered_{map,set} inside the
//                           report-building/stats/CSV paths; hash order is
//                           not part of the byte-identity contract.
//   wall-clock              no wall-clock or non-deterministic randomness
//                           sources (std::chrono::system_clock, time(),
//                           rand(), std::random_device, ...) in src/,
//                           bench/ or tools/; steady_clock is additionally
//                           confined to the sanctioned timing files
//                           (WallTimer, phase/bench timing) listed in
//                           kWallClockSanctionedFiles.
//   const-cast              const_cast is banned in src/ (tests may still use
//                           it for the argv-literals idiom).
//   simd-bit-exact          src/util/simd.* may not use approximate or
//                           contraction-dependent intrinsics (_mm*_rcp_*,
//                           _mm*_rsqrt_*, FMA families, fma()): every SIMD
//                           kernel must be bit-exact against its scalar
//                           reference under any compiler.
//   eventfn-capture-budget  the statically-estimated capture size of every
//                           lambda handed to ScheduleAt/ScheduleAfter must
//                           fit EventFn's 48-byte inline buffer; default
//                           captures ([=]/[&]) defeat the estimate and are
//                           findings outright.
//   phase-discipline        shard-phase code (src/exp/megacell.cc, src/mu/)
//                           may not call server-owned per-interval mutators;
//                           the barrier replay (MegaCell::ReplayWindow) is
//                           the only sanctioned crossing.
//   retention-discipline    JournalIn/VersionAt call sites outside the
//                           database itself must sit in a function that
//                           checks the retention class first (kFullWindow /
//                           retention() guard), mirroring the asserts
//                           inside Database: under kNone and kDirtySet
//                           retention the raw entries do not exist.
//
// Suppress a deliberate, justified exception with
// `// detlint:allow(<check>) <reason>` on or above the offending line, or
// `// detlint:allow-function(<check>) <reason>` inside a function body to
// cover the whole definition.

#ifndef MOBICACHE_TOOLS_DETLINT_CHECKS_H_
#define MOBICACHE_TOOLS_DETLINT_CHECKS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "callgraph.h"
#include "lexer.h"

namespace detlint {

struct Finding {
  std::string path;
  int line;
  std::string check;
  std::string message;
};

/// One catalogue entry per check, for SARIF rule metadata and docs.
struct CheckMeta {
  const char* name;
  const char* summary;
};

/// Every check detlint knows, in stable (alphabetical) order.
const std::vector<CheckMeta>& CheckCatalogue();

struct RepoCheckInput {
  /// The stitched index over every file being linted (paths repo-relative
  /// with forward slashes, or the fixture's pretend path).
  const RepoIndex* repo = nullptr;
  /// path -> unordered_{map,set} names declared in that file's paired
  /// header when the header itself is not part of the index (single-file
  /// runs); repo runs find the header in the index instead.
  std::map<std::string, std::set<std::string>> extra_unordered_names;
};

/// Names of unordered_{map,set,multimap,multiset} variables/members declared
/// in `scan` (heuristic: type token, balanced template args, then an
/// identifier).
std::set<std::string> CollectUnorderedNames(const FileScan& scan);

/// Runs every check over the whole index and returns the findings that
/// survive the allow directives, sorted by (path, line, check).
std::vector<Finding> RunRepoChecks(const RepoCheckInput& in);

}  // namespace detlint

#endif  // MOBICACHE_TOOLS_DETLINT_CHECKS_H_
