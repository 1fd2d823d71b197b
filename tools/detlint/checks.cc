#include "checks.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>

#include "scope.h"

namespace detlint {

namespace {

// ---------------------------------------------------------------------------
// Scope tables. Paths are repo-relative with forward slashes.

/// rng-stream-discipline: the only files sanctioned to draw from a util::Rng.
/// Each entry owns a private, positionally-seeded substream; adding a draw
/// call anywhere else requires a conscious decision about stream ordering
/// (and usually a new substream), so the file must be added here explicitly.
constexpr std::array kRngSanctionedFiles = {
    "src/util/random.h",        // the generator itself
    "src/util/random.cc",
    "src/mu/mobile_unit.cc",    // per-unit query stream (mu_seed substream)
    "src/mu/sleep_model.cc",    // per-unit sleep stream (mu_seed ^ salt)
    "src/db/update_generator.cc",  // the cell's update stream
    "src/mu/hotspot.cc",        // build-time hotspot choice (hotspot_seed)
    "src/net/delivery.cc",      // delivery-jitter stream (delivery_seed)
};

/// Rng/ZipfDistribution draw methods whose call order defines a stream.
constexpr std::array kRngDrawMethods = {
    "NextDouble", "NextUint64", "NextBits",
    "Bernoulli",  "Exponential", "Poisson", "Sample",
};

/// unordered-output: the report-building / stats / CSV paths where hash
/// iteration order could leak into observable output.
constexpr std::array kOutputPathPrefixes = {
    "src/core/", "src/sig/", "src/exp/", "src/analysis/",
    "src/util/stats", "src/util/table",
};

/// alloc-event-path: calls that allocate (or may allocate) when they appear
/// on a hot path.
constexpr std::array kAllocCallees = {
    "make_unique", "make_shared", "malloc",   "calloc",       "realloc",
    "strdup",      "push_back",   "emplace",  "emplace_back", "insert",
    "resize",      "reserve",     "assign",   "append",
};

/// alloc-event-path: the hot roots the transitive closure is seeded at (in
/// addition to every lambda scheduled on the event loop). Everything these
/// reach through the call graph — the fan-out, the report arena, the
/// delivery consumption, the batch apply — inherits the allocation-free
/// contract automatically; helpers must NOT be hand-listed here. A
/// reachable function that is deliberately cold (one-time growth, setup)
/// declares it with detlint:allow-function(alloc-event-path).
constexpr std::array kAllocHotRoots = {
    // The per-interval broadcast build/deliver pair.
    HotRoot{"Server", "Broadcast"},
    HotRoot{"Server", "Deliver"},
    // The batched update drain: runs a few hundred million times per bench.
    HotRoot{"UpdateGenerator", "GenerateIntervalUpdates"},
};

/// wall-clock: identifiers that are non-deterministic by construction and
/// banned outright wherever they appear in src/, bench/ or tools/.
constexpr std::array kWallClockIdents = {
    "system_clock", "random_device", "mt19937", "mt19937_64",
    "default_random_engine", "minstd_rand",
};

/// wall-clock: C functions banned when they appear as a call `name(`. The
/// member-access forms `x.time`, `rec->clock` stay legal.
constexpr std::array kWallClockCalls = {
    "time",      "rand",          "srand",    "clock", "gettimeofday",
    "localtime", "gmtime",        "mktime",   "strftime",
};

/// wall-clock: the only files sanctioned to read steady_clock — the
/// WallTimer wrapper and the explicit wall-time diagnostics of the bench
/// harness and the phase/sweep timing. steady_clock never feeds simulation
/// state, but confining it keeps "where does wall time enter" auditable.
constexpr std::array kWallClockSanctionedFiles = {
    "src/util/wall_timer.h",   // the steady-clock wrapper itself
    "src/exp/sweep.cc",        // per-run wall-time diagnostics
    "src/exp/megacell.cc",     // serial/shard/replay phase attribution
    "bench/bench_common.cc",   // bench harness timing
    "bench/megacell.cc",
    "bench/sleepers.cc",
    "tools/detlint/main.cc",   // the linter's own --self-test timing
};

/// simd-bit-exact: intrinsic stems that are approximate or contraction-
/// dependent — their results vary across microarchitectures or compiler
/// flags, so they can never appear in a kernel whose output must match the
/// scalar reference bit-for-bit.
constexpr std::array kSimdApproxStems = {
    "_rcp_", "_rcp14_", "_rsqrt_", "_rsqrt14_",
    "_fmadd_", "_fmsub_", "_fnmadd_", "_fnmsub_",
};

/// simd-bit-exact: scalar FMA spellings, banned as calls in the kernels.
constexpr std::array kSimdFmaCalls = {
    "fma", "fmaf", "fmal", "__builtin_fma", "__builtin_fmaf",
    "__builtin_fmal",
};

/// eventfn-capture-budget: EventFn's inline buffer (kInlineBytes in
/// src/sim/simulator.h). The static_asserts there are the compile-time
/// backstop; the lint catches the overflow before the template error does.
constexpr size_t kEventFnInlineBytes = 48;

/// phase-discipline: path prefixes whose code runs (or schedules work that
/// runs) inside the parallel shard phase.
constexpr std::array kShardPhasePrefixes = {
    "src/exp/megacell.",  // the sharded cell (.cc and .h)
    "src/mu/",            // mobile units run inside shard simulators
};

/// phase-discipline: Server members that mutate per-interval simulation
/// state. Shard-phase code calling one of these would race the serial
/// server phase (or diverge from the single-threaded replay order).
/// Control-plane calls (Start/Stop/ResetStats/SetDeliverySink/...) are not
/// listed: wiring happens before the gang exists.
constexpr std::array kServerPhaseMutators = {
    "Broadcast",         "Deliver",            "ConsumeDelivery",
    "AcquireReportSlot", "AccountUplinkQuery",
};

/// phase-discipline: the sanctioned crossings — functions that run strictly
/// after the shard barrier and replay the merged shard logs onto the
/// server. This is the ONLY place shard-side state may reach server-owned
/// mutators.
constexpr std::array kPhaseSanctionedCrossings = {
    HotRoot{"MegaCell", "ReplayWindow"},
};

/// retention-discipline: the raw-journal readers. Outside the database
/// itself, a call site must sit in a function that has already checked the
/// retention class (kFullWindow / retention() guard) — mirroring the
/// live-journal asserts inside Database::JournalIn / VersionAt: under
/// kNone and kDirtySet retention the raw entries do not exist.
constexpr std::array kRetentionReaders = {"JournalIn", "VersionAt"};

/// retention-discipline: the database's own files, where the asserts live.
constexpr std::array kRetentionExemptFiles = {
    "src/db/database.cc",
    "src/db/database.h",
};

template <typename Table>
bool Contains(const Table& table, const std::string& s) {
  return std::find(table.begin(), table.end(), s) != table.end();
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool InSrc(const std::string& path) { return StartsWith(path, "src/"); }

bool InOutputPath(const std::string& path) {
  for (const char* prefix : kOutputPathPrefixes) {
    if (StartsWith(path, prefix)) return true;
  }
  return false;
}

struct Emitter {
  const std::string* path;
  const FileScan* scan;
  std::vector<Finding>* out;
  void operator()(const std::string& check, int line,
                  std::string message) const {
    if (IsSuppressed(*scan, line, check)) return;
    out->push_back(Finding{*path, line, check, std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// rng-stream-discipline

void CheckRngStream(const FileIndex& file, const Emitter& emit) {
  if (!InSrc(file.path) || Contains(kRngSanctionedFiles, file.path)) return;
  const std::vector<Token>& t = file.scan->tokens;
  for (size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (!Contains(kRngDrawMethods, t[i].text)) continue;
    if (!IsPunct(t[i + 1], "(")) continue;
    if (!IsPunct(t[i - 1], ".") && !IsPunct(t[i - 1], "->")) continue;
    emit("rng-stream-discipline", t[i].line,
         "Rng draw call `" + t[i].text +
             "(...)` outside the sanctioned stream owners; a new consumer "
             "can reorder a deterministic stream. Draw from a dedicated "
             "substream and add the file to kRngSanctionedFiles "
             "(tools/detlint/checks.cc) deliberately.");
  }
}

// ---------------------------------------------------------------------------
// alloc-event-path

/// Flags allocating constructs in tokens (begin, end) — a lambda body or a
/// hot function body; `where` names the context in the message.
void ScanAllocFreeBody(const std::vector<Token>& t, size_t begin, size_t end,
                       const std::string& where, const Emitter& emit) {
  for (size_t b = begin; b + 1 < end; ++b) {
    if (t[b].kind != Token::Kind::kIdent) continue;
    if (IsIdent(t[b], "new")) {
      emit("alloc-event-path", t[b].line,
           "`new` inside " + where +
               "; this path is allocation-free by contract.");
      continue;
    }
    if (IsIdent(t[b], "function") && b > 0 && IsPunct(t[b - 1], "::")) {
      emit("alloc-event-path", t[b].line,
           "std::function inside " + where +
               "; it may heap-allocate its target. Use EventFn or a "
               "capture.");
      continue;
    }
    if (!Contains(kAllocCallees, t[b].text)) continue;
    // Accept an explicit template argument list between the callee and the
    // call parens: `make_shared<Report>()`.
    size_t call = b + 1;
    if (call < end && IsPunct(t[call], "<")) {
      int depth = 0;
      for (; call < end; ++call) {
        if (IsPunct(t[call], "<")) ++depth;
        if (IsPunct(t[call], ">") && --depth == 0) {
          ++call;
          break;
        }
      }
    }
    if (call < end && IsPunct(t[call], "(")) {
      emit("alloc-event-path", t[b].line,
           "allocating call `" + t[b].text + "(...)` inside " + where +
               "; this path must stay allocation-free (move the work out, "
               "pre-reserve, or recycle through the arena).");
    }
  }
}

void CheckAllocEventPath(const RepoIndex& repo, std::vector<Finding>* out) {
  // Lambdas handed directly to ScheduleAt/ScheduleAfter: always scanned,
  // whatever function they sit in.
  for (const FileIndex& file : repo.files) {
    if (!InSrc(file.path)) continue;
    const Emitter emit{&file.path, file.scan, out};
    for (const ScheduledLambda& lam : ScheduledLambdas(*file.scan)) {
      ScanAllocFreeBody(file.scan->tokens, lam.body_begin, lam.body_end,
                        "a lambda scheduled on the event loop", emit);
    }
  }

  // The transitive closure: every definition reachable from a hot root or
  // a scheduled lambda inherits the contract. allow-function pruning
  // happens inside ComputeHotClosure.
  const std::vector<HotRoot> roots(kAllocHotRoots.begin(),
                                   kAllocHotRoots.end());
  const HotSet hot = ComputeHotClosure(repo, roots, "alloc-event-path");
  for (const auto& [ref, via] : hot) {
    const FileIndex& file = repo.files[ref.file];
    const FunctionDef& def = file.defs[ref.def];
    const Emitter emit{&file.path, file.scan, out};
    std::string chain = via.root;
    for (const std::string& hop : via.chain) chain += " -> " + hop;
    ScanAllocFreeBody(file.scan->tokens, def.body_begin, def.body_end,
                      "the allocation-free hot path (" + chain + ")", emit);
  }
}

// ---------------------------------------------------------------------------
// unordered-output

std::set<std::string> CollectNames(const FileScan& scan) {
  std::set<std::string> names;
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& s = t[i].text;
    if (s != "unordered_map" && s != "unordered_set" &&
        s != "unordered_multimap" && s != "unordered_multiset") {
      continue;
    }
    size_t j = i + 1;
    if (!IsPunct(t[j], "<")) continue;
    int depth = 0;
    for (; j < t.size(); ++j) {
      if (IsPunct(t[j], "<")) ++depth;
      if (IsPunct(t[j], ">")) {
        if (--depth == 0) {
          ++j;
          break;
        }
      }
    }
    while (j < t.size() &&
           (IsPunct(t[j], "&") || IsPunct(t[j], "*") || IsIdent(t[j], "const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == Token::Kind::kIdent) {
      names.insert(t[j].text);
    }
  }
  return names;
}

void CheckUnorderedOutput(const FileIndex& file,
                          const std::set<std::string>& extra_names,
                          const Emitter& emit) {
  if (!InOutputPath(file.path)) return;
  std::set<std::string> names = CollectNames(*file.scan);
  names.insert(extra_names.begin(), extra_names.end());

  const std::vector<Token>& t = file.scan->tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!IsIdent(t[i], "for") || !IsPunct(t[i + 1], "(")) continue;
    const size_t head_end = SkipBalanced(t, i + 1);
    // Separate a range-for from a classic for: a ';' at top nesting level
    // of the head means classic.
    int paren = 0, bracket = 0, brace = 0;
    size_t colon = 0;
    bool classic = false;
    for (size_t j = i + 1; j < head_end; ++j) {
      if (t[j].kind != Token::Kind::kPunct) continue;
      if (t[j].text == "(") ++paren;
      if (t[j].text == ")") --paren;
      if (t[j].text == "[") ++bracket;
      if (t[j].text == "]") --bracket;
      if (t[j].text == "{") ++brace;
      if (t[j].text == "}") --brace;
      const bool top = paren == 1 && bracket == 0 && brace == 0;
      if (top && t[j].text == ";") {
        classic = true;
        break;
      }
      if (top && t[j].text == ":" && colon == 0) colon = j;
    }
    if (classic || colon == 0) continue;
    for (size_t j = colon + 1; j + 1 < head_end; ++j) {
      if (t[j].kind != Token::Kind::kIdent) continue;
      const bool is_unordered_name = names.count(t[j].text) > 0;
      const bool mentions_unordered =
          t[j].text.find("unordered_") != std::string::npos;
      if (!is_unordered_name && !mentions_unordered) continue;
      emit("unordered-output", t[j].line,
           "range-for over unordered container `" + t[j].text +
               "` in a report/stats/CSV path; hash order is not part of the "
               "byte-identity contract. Iterate a sorted copy, sort the "
               "result before it escapes, or justify with "
               "detlint:allow(unordered-output).");
      break;  // one finding per loop head
    }
  }
}

// ---------------------------------------------------------------------------
// wall-clock

void CheckWallClock(const FileIndex& file, const Emitter& emit) {
  // tests/ stay exempt (they time themselves freely); everything shipped —
  // simulation, bench harness, tooling — is covered.
  const std::string& path = file.path;
  if (!InSrc(path) && !StartsWith(path, "bench/") &&
      !StartsWith(path, "tools/")) {
    return;
  }
  const bool steady_sanctioned = Contains(kWallClockSanctionedFiles, path);
  const std::vector<Token>& t = file.scan->tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (Contains(kWallClockIdents, t[i].text)) {
      emit("wall-clock", t[i].line,
           "`" + t[i].text +
               "` is non-deterministic; simulation code must draw time from "
               "Simulator::Now() and randomness from util::Rng.");
      continue;
    }
    if (t[i].text == "steady_clock" && !steady_sanctioned) {
      emit("wall-clock", t[i].line,
           "`steady_clock` outside the sanctioned timing files; route wall "
           "time through util::WallTimer (or add the file to "
           "kWallClockSanctionedFiles in tools/detlint/checks.cc "
           "deliberately).");
      continue;
    }
    if (!Contains(kWallClockCalls, t[i].text)) continue;
    if (i + 1 >= t.size() || !IsPunct(t[i + 1], "(")) continue;
    if (i > 0 && (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->"))) {
      continue;  // member access named `time`/`clock` etc. is fine
    }
    if (i > 0 && t[i - 1].kind == Token::Kind::kIdent &&
        t[i - 1].text != "return") {
      continue;  // `double time() const` — a declaration, not a call
    }
    emit("wall-clock", t[i].line,
         "wall-clock call `" + t[i].text +
             "(...)`; simulation code must be replayable from the seed "
             "alone.");
  }
}

// ---------------------------------------------------------------------------
// const-cast

void CheckConstCast(const FileIndex& file, const Emitter& emit) {
  if (!InSrc(file.path)) return;
  for (const Token& t : file.scan->tokens) {
    if (IsIdent(t, "const_cast")) {
      emit("const-cast", t.line,
           "const_cast is banned in src/; use `mutable` state with a const-"
           "correct accessor or a private non-const overload.");
    }
  }
}

// ---------------------------------------------------------------------------
// simd-bit-exact

void CheckSimdBitExact(const FileIndex& file, const Emitter& emit) {
  if (!StartsWith(file.path, "src/util/simd")) return;
  const std::vector<Token>& t = file.scan->tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& s = t[i].text;
    if (StartsWith(s, "_mm")) {
      for (const char* stem : kSimdApproxStems) {
        if (s.find(stem) != std::string::npos) {
          emit("simd-bit-exact", t[i].line,
               "`" + s +
                   "` is approximate or contraction-dependent; SIMD kernels "
                   "must be bit-exact against their scalar reference on "
                   "every microarchitecture. Use exact div/sqrt/mul+add "
                   "sequences instead.");
          break;
        }
      }
      continue;
    }
    if (Contains(kSimdFmaCalls, s) && i + 1 < t.size() &&
        IsPunct(t[i + 1], "(")) {
      emit("simd-bit-exact", t[i].line,
           "`" + s +
               "(...)` contracts the intermediate rounding; kernels must "
               "round after every operation to stay bit-exact with the "
               "scalar path.");
    }
  }
}

// ---------------------------------------------------------------------------
// eventfn-capture-budget

/// Estimated by-value size of a declared type token (decl_types encoding:
/// pointee types carry a trailing '*'). Deliberately rough — the point is
/// catching 48-byte-plus captures statically, not computing sizeof.
size_t SizeOfDeclType(const std::string& type) {
  if (!type.empty() && type.back() == '*') return 8;
  if (type == "shared_ptr" || type == "weak_ptr") return 16;
  if (type == "unique_ptr") return 8;
  if (type == "string") return 32;
  if (type == "vector" || type == "deque") return 24;
  if (type == "function") return 32;
  if (type == "EventId") return 16;
  if (type == "SimTime" || type == "ItemId") return 8;
  if (!type.empty() &&
      std::isupper(static_cast<unsigned char>(type[0])) != 0) {
    return 16;  // unknown class captured by value
  }
  return 8;  // scalars, enums, unknowns
}

size_t SizeOfCapturedName(const FileIndex& file, const std::string& name) {
  auto it = file.decl_types.find(name);
  return it == file.decl_types.end() ? 8 : SizeOfDeclType(it->second);
}

void CheckCaptureBudget(const FileIndex& file, const Emitter& emit) {
  if (!InSrc(file.path)) return;
  const std::vector<Token>& t = file.scan->tokens;
  for (const ScheduledLambda& lam : ScheduledLambdas(*file.scan)) {
    size_t total = 0;
    std::string itemized;
    bool defeated = false;

    size_t entry = lam.capture_begin;
    while (entry < lam.capture_end) {
      // One capture entry: up to the next top-level ','.
      size_t end = entry;
      int depth = 0;
      while (end < lam.capture_end) {
        const Token& tok = t[end];
        if (tok.kind == Token::Kind::kPunct) {
          if (tok.text == "(" || tok.text == "[" || tok.text == "{") ++depth;
          if (tok.text == ")" || tok.text == "]" || tok.text == "}") --depth;
          if (tok.text == "," && depth == 0) break;
        }
        ++end;
      }
      if (end > entry) {
        size_t size = 0;
        std::string label;
        if (end == entry + 1 && IsPunct(t[entry], "&")) {
          defeated = true;  // [&] default capture
        } else if (end == entry + 1 && IsPunct(t[entry], "=")) {
          defeated = true;  // [=] default capture
        } else if (IsIdent(t[entry], "this")) {
          size = 8;
          label = "this";
        } else if (IsPunct(t[entry], "&")) {
          // By-reference named capture: one pointer.
          size = 8;
          label = "&" + t[entry + 1].text;
        } else if (IsPunct(t[entry], "*") && entry + 1 < end &&
                   IsIdent(t[entry + 1], "this")) {
          size = 16;  // copy of *this, type unknown: class estimate
          label = "*this";
        } else if (t[entry].kind == Token::Kind::kIdent) {
          label = t[entry].text;
          // Init capture `name = expr`: size by the moved-from variable's
          // type when the initializer is std::move(x) or a plain x.
          size_t eq = entry + 1;
          if (eq < end && IsPunct(t[eq], "=")) {
            std::string source;
            for (size_t p = eq + 1; p < end; ++p) {
              if (t[p].kind == Token::Kind::kIdent && t[p].text != "move" &&
                  t[p].text != "std") {
                source = t[p].text;
                break;
              }
            }
            size = source.empty() ? 8 : SizeOfCapturedName(file, source);
          } else {
            size = SizeOfCapturedName(file, label);
          }
        } else {
          size = 8;
          label = "?";
        }
        if (size > 0) {
          total += size;
          if (!itemized.empty()) itemized += ", ";
          itemized += label + "=" + std::to_string(size);
        }
      }
      entry = end + 1;
    }

    if (defeated) {
      emit("eventfn-capture-budget", lam.line,
           "default capture ([=]/[&]) in a lambda scheduled on the event "
           "loop; it defeats static capture-size analysis of EventFn's " +
               std::to_string(kEventFnInlineBytes) +
               "-byte inline buffer. Capture named variables explicitly.");
      continue;
    }
    if (total > kEventFnInlineBytes) {
      emit("eventfn-capture-budget", lam.line,
           "estimated capture size " + std::to_string(total) + " bytes (" +
               itemized + ") exceeds EventFn's " +
               std::to_string(kEventFnInlineBytes) +
               "-byte inline buffer; the ScheduleAt call would not compile "
               "(or would heap-allocate). Capture pointers/indices into "
               "member state instead.");
    }
  }
}

// ---------------------------------------------------------------------------
// phase-discipline

bool InShardPhaseFile(const std::string& path) {
  for (const char* prefix : kShardPhasePrefixes) {
    if (StartsWith(path, prefix)) return true;
  }
  return false;
}

void CheckPhaseDiscipline(const RepoIndex& repo, std::vector<Finding>* out) {
  for (size_t f = 0; f < repo.files.size(); ++f) {
    const FileIndex& file = repo.files[f];
    if (!InShardPhaseFile(file.path)) continue;
    const Emitter emit{&file.path, file.scan, out};
    for (const CallSite& call : file.calls) {
      if (!Contains(kServerPhaseMutators, call.name)) continue;
      // The callee must actually be the Server: an explicit Server::
      // qualifier, or a receiver whose declared type is Server.
      bool on_server = call.qualifier == "Server";
      if (!on_server && !call.receiver.empty()) {
        auto it = file.var_types.find(call.receiver);
        const std::string type =
            it != file.var_types.end()
                ? it->second
                : (repo.var_types.count(call.receiver) > 0
                       ? repo.var_types.at(call.receiver)
                       : "");
        on_server = type == "Server";
      }
      if (!on_server) continue;
      // The barrier replay is the sanctioned crossing.
      bool sanctioned = false;
      if (call.owner < file.defs.size()) {
        const FunctionDef& owner = file.defs[call.owner];
        for (const HotRoot& crossing : kPhaseSanctionedCrossings) {
          if (owner.cls == crossing.cls && owner.name == crossing.name) {
            sanctioned = true;
            break;
          }
        }
        if (FunctionAllows(*file.scan, owner, "phase-discipline")) {
          sanctioned = true;
        }
      }
      if (sanctioned) continue;
      emit("phase-discipline", call.line,
           "shard-phase code calls server-owned mutator `" + call.name +
               "(...)`; the serial server phase owns that state, and the "
               "barrier replay (MegaCell::ReplayWindow) is the only "
               "sanctioned crossing. Log the event in the shard and replay "
               "it after the barrier.");
    }
  }
}

// ---------------------------------------------------------------------------
// retention-discipline

void CheckRetentionDiscipline(const RepoIndex& repo,
                              std::vector<Finding>* out) {
  for (size_t f = 0; f < repo.files.size(); ++f) {
    const FileIndex& file = repo.files[f];
    if (!InSrc(file.path) || Contains(kRetentionExemptFiles, file.path)) {
      continue;
    }
    const Emitter emit{&file.path, file.scan, out};
    const std::vector<Token>& t = file.scan->tokens;
    for (const CallSite& call : file.calls) {
      if (!Contains(kRetentionReaders, call.name)) continue;
      if (call.receiver.empty() && call.qualifier.empty()) continue;
      // Guarded when the enclosing function checks the retention class
      // before the read: any `retention` / `kFullWindow` / *Retention*
      // token earlier in the body (an assert, an if, or a floor raise).
      bool guarded = false;
      if (call.owner < file.defs.size()) {
        const FunctionDef& owner = file.defs[call.owner];
        for (size_t p = owner.body_begin;
             p < owner.body_end && p < call.token; ++p) {
          if (t[p].kind != Token::Kind::kIdent) continue;
          if (t[p].text == "retention" || t[p].text == "kFullWindow" ||
              t[p].text.find("Retention") != std::string::npos) {
            guarded = true;
            break;
          }
        }
        if (FunctionAllows(*file.scan, owner, "retention-discipline")) {
          guarded = true;
        }
      }
      if (guarded) continue;
      emit("retention-discipline", call.line,
           "raw journal read `" + call.name +
               "(...)` without a retention guard; under kNone and "
               "kDirtySet retention the raw entries do not exist. Assert "
               "or check `retention() == JournalRetention::kFullWindow` in "
               "this function first (mirroring the asserts inside "
               "Database).");
    }
  }
}

}  // namespace

std::set<std::string> CollectUnorderedNames(const FileScan& scan) {
  return CollectNames(scan);
}

const std::vector<CheckMeta>& CheckCatalogue() {
  static const std::vector<CheckMeta> kCatalogue = {
      {"alloc-event-path",
       "No allocation in any function transitively reachable from a hot "
       "root or a scheduled event lambda."},
      {"const-cast", "const_cast is banned in src/."},
      {"eventfn-capture-budget",
       "Scheduled-lambda captures must fit EventFn's 48-byte inline "
       "buffer."},
      {"phase-discipline",
       "Shard-phase code must not call server-owned mutators; the barrier "
       "replay is the only sanctioned crossing."},
      {"retention-discipline",
       "Raw journal reads (JournalIn/VersionAt) require a full-window "
       "retention guard in the calling function."},
      {"rng-stream-discipline",
       "util::Rng draws are confined to the files owning a simulation "
       "substream."},
      {"simd-bit-exact",
       "No approximate or contraction-dependent intrinsics in the SIMD "
       "kernels."},
      {"unordered-output",
       "No range-for over unordered containers in report/stats/CSV paths."},
      {"wall-clock",
       "No non-deterministic time or randomness sources in src/, bench/ or "
       "tools/."},
  };
  return kCatalogue;
}

std::vector<Finding> RunRepoChecks(const RepoCheckInput& in) {
  const RepoIndex& repo = *in.repo;
  std::vector<Finding> findings;

  // Path -> index, for paired-header lookup.
  std::map<std::string, size_t> by_path;
  for (size_t f = 0; f < repo.files.size(); ++f) {
    by_path[repo.files[f].path] = f;
  }

  for (size_t f = 0; f < repo.files.size(); ++f) {
    const FileIndex& file = repo.files[f];
    const Emitter emit{&file.path, file.scan, &findings};

    // Members of a .cc's class usually live in the paired header; pick up
    // its unordered-container names so range-fors over members are caught.
    std::set<std::string> extra;
    auto extra_it = in.extra_unordered_names.find(file.path);
    if (extra_it != in.extra_unordered_names.end()) extra = extra_it->second;
    if (file.path.size() > 3 &&
        file.path.compare(file.path.size() - 3, 3, ".cc") == 0) {
      auto header =
          by_path.find(file.path.substr(0, file.path.size() - 3) + ".h");
      if (header != by_path.end()) {
        const std::set<std::string> names =
            CollectNames(*repo.files[header->second].scan);
        extra.insert(names.begin(), names.end());
      }
    }

    CheckRngStream(file, emit);
    CheckUnorderedOutput(file, extra, emit);
    CheckWallClock(file, emit);
    CheckConstCast(file, emit);
    CheckSimdBitExact(file, emit);
    CheckCaptureBudget(file, emit);
  }

  CheckAllocEventPath(repo, &findings);
  CheckPhaseDiscipline(repo, &findings);
  CheckRetentionDiscipline(repo, &findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.check != b.check) return a.check < b.check;
              return a.message < b.message;
            });
  // A scheduled lambda inside a hot function body is scanned by both
  // alloc-event-path passes (with differently-worded messages); report each
  // (path, line, check) site once — the sort keeps the lambda wording
  // first.
  findings.erase(
      std::unique(findings.begin(), findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return a.path == b.path && a.line == b.line &&
                           a.check == b.check;
                  }),
      findings.end());
  return findings;
}

}  // namespace detlint
