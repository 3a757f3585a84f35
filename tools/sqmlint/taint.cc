#include "sqmlint/taint.h"

#include <algorithm>
#include <deque>
#include <set>

#include "sqmlint/checker.h"
#include "sqmlint/ir.h"
#include "sqmlint/symbols.h"

namespace sqmlint {
namespace {

using Mask = uint64_t;
constexpr Mask kSourceBit = 1;  ///< Derived from a secret source.
constexpr int kMaxParams = 62;

Mask ParamBit(size_t i) {
  return i < kMaxParams ? (Mask{1} << (i + 1)) : 0;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}
bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

/// Calls whose *name alone* marks the result secret, independent of
/// resolution — the protocol boundary API: Shamir dealing (ShareBatchWithTail
/// is the one the protocols call) and sampler draws. Resolution-based sources
/// (anything defined under src/sampling/ whose name starts with Sample)
/// extend this set per project.
const std::set<std::string>& SourceCallNames() {
  static const std::set<std::string> kNames = {
      "Share", "ShareBatch", "ShareBatchWithTail", "Sample", "SampleVector"};
  return kNames;
}

/// Member accessors that launder taint: the *size* of a secret container
/// or the ok-ness of a secret-bearing Result is public metadata.
const std::set<std::string>& PublicAccessors() {
  static const std::set<std::string> kNames = {
      "size",      "empty", "capacity",  "length", "use_count", "ok",
      "has_value", "rows",  "cols",      "status", "num_parties"};
  return kNames;
}

/// Constant-time helpers through which secret-dependent selection is
/// allowed in src/mpc/ (branchless by construction).
const std::set<std::string>& ConstantTimeHelpers() {
  static const std::set<std::string> kNames = {
      "CtSelect", "CtEq", "CtLess", "CtGe", "CtMux", "ConstantTimeSelect",
      "ConstantTimeEq"};
  return kNames;
}

/// Statement-shaped sinks: the tainted value appears anywhere in the
/// statement (stream inserters), not in a parenthesized argument list.
const std::set<std::string>& StatementSinks() {
  static const std::set<std::string> kNames = {
      "SQM_LOG", "SQM_LOG_IF", "SQM_VLOG", "printf", "fprintf",
      "puts",    "fputs",      "cout",     "cerr",   "clog"};
  return kNames;
}

/// Call-shaped sinks whose argument region leaves the process through the
/// observability plane (traces, telemetry snapshots, JSON artifacts).
const std::set<std::string>& ObsCallSinks() {
  static const std::set<std::string> kNames = {
      "SQM_OBS_COUNTER_ADD", "SQM_OBS_COUNTER_INC", "SQM_OBS_GAUGE_SET",
      "SQM_OBS_HISTOGRAM_RECORD"};
  return kNames;
}

/// Member-call sinks (require '.'/'->'): span annotations and JSON
/// serialization.
const std::set<std::string>& ObsMemberSinks() {
  static const std::set<std::string> kNames = {"AddArg", "Field"};
  return kNames;
}

/// Wire sinks: a transport send outside the MACed protocol seam. The
/// seam — src/mpc/ and src/net/ — ships shares by design and every TCP
/// frame is MACed in src/net/tcp/frame.cc; everywhere else a Send of
/// tainted data is a leak into an unauthenticated side channel.
const std::set<std::string>& WireSinks() {
  static const std::set<std::string> kNames = {"Send", "Broadcast"};
  return kNames;
}

bool InWireSeam(const std::string& path) {
  return PathInModule(path, "src/mpc/") || PathInModule(path, "src/net/") ||
         PathInModule(path, "src/testing/");
}

/// Harness code — tests, benches, examples, chaos tooling — constructs
/// and inspects secret material on purpose. It neither seeds real taint
/// into production callees nor hosts gating sinks; the flow checks are
/// about leak paths that exist in src/ proper.
bool IsHarnessFile(const std::string& path) {
  return PathInModule(path, "tests/") || PathInModule(path, "bench/") ||
         PathInModule(path, "examples/") ||
         PathInModule(path, "src/testing/");
}

struct Engine {
  const Project& project;
  SymbolTable symbols;
  std::vector<Mask> returns_mask;        ///< By function index.
  std::vector<Mask> ext_taint;           ///< Param bits proven tainted.
  std::vector<std::map<int, std::string>> ext_origin;
  std::vector<std::string> local_origin;  ///< First source call, rendered.

  explicit Engine(const Project& p) : project(p), symbols(SymbolTable::Build(p)) {
    const size_t n = symbols.functions().size();
    returns_mask.assign(n, 0);
    ext_taint.assign(n, 0);
    ext_origin.resize(n);
    local_origin.resize(n);
  }

  // ---- source / callee classification ------------------------------------

  bool IsSourceCall(const CallSite& call) const {
    if (SourceCallNames().count(call.callee) > 0) return true;
    for (const FunctionIR* def : symbols.Resolve(call.callee)) {
      if (PathInModule(def->file->path, "src/sampling/") &&
          def->name.rfind("Sample", 0) == 0) {
        return true;
      }
    }
    return false;
  }

  bool IsSamplerDraw(const CallSite& call) const {
    if (call.callee == "Sample" || call.callee == "SampleVector") return true;
    for (const FunctionIR* def : symbols.Resolve(call.callee)) {
      if (PathInModule(def->file->path, "src/sampling/") &&
          def->name.rfind("Sample", 0) == 0) {
        return true;
      }
    }
    return false;
  }

  Mask CalleeReturnsMask(const std::string& name) const {
    Mask mask = 0;
    for (const FunctionIR* def : symbols.Resolve(name)) {
      mask |= returns_mask[symbols.IndexOf(def)];
    }
    return mask;
  }

  // ---- expression taint ---------------------------------------------------

  /// Taint mask of the token range under `vars`, following call returns
  /// through the summaries. `depth` bounds recursion through nested
  /// argument lists.
  Mask EvalRange(const FunctionIR& fn, TokenRange range,
                 const std::map<std::string, Mask>& vars, int depth) const {
    if (depth > 8) return 0;
    const std::vector<Token>& toks = fn.file->tokens;
    Mask mask = 0;
    for (size_t k = range.begin; k < range.end && k < toks.size(); ++k) {
      const Token& t = toks[k];
      if (!IsIdent(t)) continue;
      const bool call_form = k + 1 < range.end && IsPunct(toks[k + 1], "(");
      if (call_form) {
        Mask rm = CalleeReturnsMask(t.text);
        bool is_source = false;
        // Build a one-off CallSite view for source classification.
        CallSite probe;
        probe.callee = t.text;
        if (IsSourceCall(probe)) is_source = true;
        const size_t close_past = SkipParenGroup(toks, k + 1);
        const TokenRange inside{k + 2,
                                close_past > k + 2 ? close_past - 1 : k + 2};
        if (is_source) mask |= kSourceBit;
        if (rm != 0 && !inside.empty()) {
          const std::vector<TokenRange> args =
              SplitTopLevelArgs(toks, inside);
          if (rm & kSourceBit) mask |= kSourceBit;
          for (size_t a = 0; a < args.size(); ++a) {
            if ((rm & ParamBit(a)) == 0) continue;
            mask |= EvalRange(fn, args[a], vars, depth + 1);
          }
        } else if (rm & kSourceBit) {
          mask |= kSourceBit;
        }
        // Even without a resolvable summary, taint reaching any argument
        // of an unknown call conservatively taints the call's value for
        // *expression* purposes only when the callee is a known source;
        // unknown calls otherwise act as sanitizers-by-ignorance, the
        // low-noise default for a linter.
        k = close_past > k ? close_past - 1 : k;
        continue;
      }
      // Accessor exception: `shares.size()` is public metadata.
      if (k + 3 < toks.size() &&
          (IsPunct(toks[k + 1], ".") || IsPunct(toks[k + 1], "->")) &&
          IsIdent(toks[k + 2]) && PublicAccessors().count(toks[k + 2].text) &&
          IsPunct(toks[k + 3], "(")) {
        Mask ignored = 0;
        (void)ignored;
        k += 3;  // Skip past the accessor call's open paren.
        k = SkipParenGroup(toks, k) - 1;
        continue;
      }
      auto it = vars.find(t.text);
      if (it != vars.end()) mask |= it->second;
    }
    return mask;
  }

  /// Local fixpoint over the function's assigns with the given parameter
  /// seed masks; returns the converged variable map.
  std::map<std::string, Mask> Converge(const FunctionIR& fn,
                                       Mask param_seed_mask) const {
    std::map<std::string, Mask> vars;
    for (size_t i = 0; i < fn.params.size(); ++i) {
      if (fn.params[i].empty()) continue;
      const Mask bit = ParamBit(i);
      if (param_seed_mask & bit) vars[fn.params[i]] |= bit;
    }
    for (int pass = 0; pass < 12; ++pass) {
      bool changed = false;
      for (const Assign& assign : fn.assigns) {
        // A declassify directive on the assignment is a flow barrier: the
        // annotated value is vouched public and stops propagating.
        if (fn.file->declassify.count(assign.line) > 0) continue;
        const Mask m = EvalRange(fn, assign.rhs, vars, 0);
        Mask& slot = vars[assign.lhs];
        if ((slot | m) != slot) {
          slot |= m;
          changed = true;
        }
      }
      if (!changed) break;
    }
    return vars;
  }

  // ---- phase 1: return summaries -----------------------------------------

  void ComputeSummaries() {
    const auto& fns = symbols.functions();
    std::deque<size_t> queue;
    for (size_t i = 0; i < fns.size(); ++i) queue.push_back(i);
    std::vector<bool> queued(fns.size(), true);
    int steps = 0;
    const int max_steps = static_cast<int>(fns.size()) * 8 + 1024;
    while (!queue.empty() && steps++ < max_steps) {
      const size_t i = queue.front();
      queue.pop_front();
      queued[i] = false;
      const FunctionIR& fn = fns[i];
      Mask all_params = 0;
      for (size_t p = 0; p < fn.params.size(); ++p) all_params |= ParamBit(p);
      const auto vars = Converge(fn, all_params);
      auto it = vars.find("@ret");
      const Mask ret = it == vars.end() ? 0 : it->second;
      if (ret != returns_mask[i]) {
        returns_mask[i] = returns_mask[i] | ret;
        for (const FunctionIR* caller : symbols.Callers(&fn)) {
          const size_t c = symbols.IndexOf(caller);
          if (!queued[c]) {
            queued[c] = true;
            queue.push_back(c);
          }
        }
      }
    }
  }

  // ---- phase 2: real taint propagation -----------------------------------

  /// Seed mask for the real pass: parameters proven tainted by a caller.
  Mask RealSeed(size_t fn_index) const { return ext_taint[fn_index]; }

  std::string OriginOf(const FunctionIR& fn, Mask mask) const {
    const size_t i = symbols.IndexOf(&fn);
    if ((mask & kSourceBit) && !local_origin[i].empty()) {
      return local_origin[i];
    }
    for (size_t p = 0; p < fn.params.size(); ++p) {
      if ((mask & ParamBit(p)) == 0) continue;
      auto it = ext_origin[i].find(static_cast<int>(p));
      if (it != ext_origin[i].end()) return it->second;
    }
    return "secret source";
  }

  void PropagateRealTaint() {
    const auto& fns = symbols.functions();
    // Record each function's first local source call for provenance.
    for (size_t i = 0; i < fns.size(); ++i) {
      for (const CallSite& call : fns[i].calls) {
        if (!IsSourceCall(call)) continue;
        local_origin[i] = "'" + call.callee + "' at " + fns[i].file->path +
                          ":" + std::to_string(call.line);
        break;
      }
    }
    std::deque<size_t> queue;
    std::vector<bool> queued(fns.size(), true);
    for (size_t i = 0; i < fns.size(); ++i) queue.push_back(i);
    int steps = 0;
    const int max_steps = static_cast<int>(fns.size()) * 8 + 1024;
    while (!queue.empty() && steps++ < max_steps) {
      const size_t i = queue.front();
      queue.pop_front();
      queued[i] = false;
      const FunctionIR& fn = fns[i];
      if (IsHarnessFile(fn.file->path)) continue;
      const auto vars = Converge(fn, RealSeed(i));
      // Push taint into callee parameters.
      for (const CallSite& call : fn.calls) {
        if (call.args.empty()) continue;
        // Declassify on the call line is a flow barrier at this boundary:
        // the caller vouches the values crossing it are public.
        if (fn.file->declassify.count(call.line) > 0) continue;
        for (size_t a = 0; a < call.args.size() && a < kMaxParams; ++a) {
          const Mask m = EvalRange(fn, call.args[a].range, vars, 0);
          if (m == 0) continue;
          for (const FunctionIR* def : symbols.Resolve(call.callee)) {
            const size_t d = symbols.IndexOf(def);
            if (a >= def->params.size()) continue;
            const Mask bit = ParamBit(a);
            if (ext_taint[d] & bit) continue;
            ext_taint[d] |= bit;
            std::string param_name = def->params[a].empty()
                                         ? "#" + std::to_string(a)
                                         : "'" + def->params[a] + "'";
            ext_origin[d][static_cast<int>(a)] =
                "argument " + param_name + " tainted by " + OriginOf(fn, m) +
                " (passed from '" + fn.Qualified() + "', " + fn.file->path +
                ":" + std::to_string(call.line) + ")";
            if (!queued[d]) {
              queued[d] = true;
              queue.push_back(d);
            }
          }
        }
      }
    }
  }
};

// ---- finding emission -----------------------------------------------------

void Emit(FlowAnalysis* out, const SourceFile& file, const char* check,
          int line, std::string message) {
  FlowFinding finding;
  finding.check = check;
  finding.path = file.path;
  finding.line = line;
  // A declassify directive covering the line turns the finding into a
  // reported-but-non-gating record carrying the justification.
  auto it = file.declassify.find(line);
  if (it != file.declassify.end()) {
    finding.declassified = true;
    message += " [declassified: " + it->second + "]";
  }
  finding.message = std::move(message);
  out->findings[check][file.path].push_back(std::move(finding));
}

/// True when the token at `idx` sits inside the argument list of a call
/// to a constant-time helper (walking outward through unmatched '(').
bool InsideConstantTimeHelper(const std::vector<Token>& toks, size_t idx,
                              size_t lower_bound) {
  int depth = 0;
  size_t k = idx;
  while (k > lower_bound) {
    --k;
    if (IsPunct(toks[k], ")")) ++depth;
    if (IsPunct(toks[k], "(")) {
      if (depth > 0) {
        --depth;
        continue;
      }
      if (k > lower_bound && IsIdent(toks[k - 1]) &&
          ConstantTimeHelpers().count(toks[k - 1].text) > 0) {
        return true;
      }
      // Keep walking outward through enclosing groups.
    }
  }
  return false;
}

void CheckTaintToSinks(const Engine& engine, FlowAnalysis* out) {
  for (const FunctionIR& fn : engine.symbols.functions()) {
    const SourceFile& file = *fn.file;
    if (IsHarnessFile(file.path)) continue;
    const size_t i = engine.symbols.IndexOf(&fn);
    const auto vars = engine.Converge(fn, engine.RealSeed(i));
    const std::vector<Token>& toks = file.tokens;

    // Call-shaped sinks from the IR.
    for (const CallSite& call : fn.calls) {
      const bool obs_macro = ObsCallSinks().count(call.callee) > 0;
      const bool obs_member =
          ObsMemberSinks().count(call.callee) > 0 && call.member;
      const bool wire = WireSinks().count(call.callee) > 0 && call.member &&
                        !InWireSeam(file.path);
      if (!obs_macro && !obs_member && !wire) continue;
      for (const CallArg& arg : call.args) {
        const Mask m = engine.EvalRange(fn, arg.range, vars, 0);
        if (m == 0) continue;
        std::string kind =
            wire ? "un-MACed transport send (only the frame.cc MAC path may "
                   "carry secret payloads)"
                 : "observability export";
        Emit(out, file, "taint-flow", call.line,
             "secret value reaches sink '" + call.callee + "' (" + kind +
                 "); origin: " + engine.OriginOf(fn, m));
        break;
      }
    }

    // Statement-shaped sinks: scan the body tokens.
    for (size_t k = fn.body.begin; k < fn.body.end; ++k) {
      if (!IsIdent(toks[k]) || StatementSinks().count(toks[k].text) == 0) {
        continue;
      }
      // Region: to the ';' at this statement's depth.
      int depth = 0;
      size_t e = k + 1;
      for (; e < fn.body.end; ++e) {
        if (IsPunct(toks[e], "(")) ++depth;
        if (IsPunct(toks[e], ")")) --depth;
        if (depth < 0) break;
        if (depth == 0 && IsPunct(toks[e], ";")) break;
      }
      const Mask m = engine.EvalRange(fn, TokenRange{k + 1, e}, vars, 0);
      if (m == 0) {
        k = e;
        continue;
      }
      Emit(out, file, "taint-flow", toks[k].line,
           "secret value reaches sink '" + toks[k].text +
               "' (log/stdio); origin: " + engine.OriginOf(fn, m));
      k = e;
    }
  }
}

void CheckSecretBranch(const Engine& engine, FlowAnalysis* out) {
  for (const FunctionIR& fn : engine.symbols.functions()) {
    const SourceFile& file = *fn.file;
    if (!PathInModule(file.path, "src/mpc/")) continue;
    const size_t i = engine.symbols.IndexOf(&fn);
    const auto vars = engine.Converge(fn, engine.RealSeed(i));
    if (vars.empty()) continue;
    const std::vector<Token>& toks = file.tokens;

    auto report_region = [&](TokenRange region, const char* what) {
      // Find the first genuinely tainted identifier in the region,
      // honoring the accessor and constant-time exceptions.
      for (size_t k = region.begin; k < region.end && k < toks.size(); ++k) {
        if (!IsIdent(toks[k])) continue;
        auto it = vars.find(toks[k].text);
        if (it == vars.end() || it->second == 0) continue;
        // `shares.size()` inside a condition is public metadata.
        if (k + 3 < toks.size() &&
            (IsPunct(toks[k + 1], ".") || IsPunct(toks[k + 1], "->")) &&
            IsIdent(toks[k + 2]) &&
            PublicAccessors().count(toks[k + 2].text) > 0 &&
            IsPunct(toks[k + 3], "(")) {
          k += 3;
          k = SkipParenGroup(toks, k) - 1;
          continue;
        }
        if (InsideConstantTimeHelper(toks, k, fn.body.begin)) continue;
        Emit(out, file, "secret-branch", toks[k].line,
             std::string("secret-tainted value '") + toks[k].text +
                 "' steers " + what +
                 " in src/mpc/ — secret-dependent control flow and "
                 "addressing leak through timing and cache side channels; "
                 "route it through a constant-time helper or declassify "
                 "with justification; origin: " +
                 engine.OriginOf(fn, it->second));
        return;
      }
    };

    for (size_t k = fn.body.begin; k < fn.body.end; ++k) {
      const Token& t = toks[k];
      if (IsIdent(t) &&
          (t.text == "if" || t.text == "while" || t.text == "switch") &&
          k + 1 < fn.body.end && IsPunct(toks[k + 1], "(")) {
        const size_t close_past = SkipParenGroup(toks, k + 1);
        report_region(TokenRange{k + 2, close_past - 1}, "a branch");
        continue;
      }
      if (IsIdent(t) && t.text == "for" && k + 1 < fn.body.end &&
          IsPunct(toks[k + 1], "(")) {
        // Condition clause only: between the first and second top-level ';'.
        const size_t close_past = SkipParenGroup(toks, k + 1);
        int depth = 0, semis = 0;
        size_t c_begin = 0, c_end = 0;
        for (size_t m = k + 1; m + 1 < close_past; ++m) {
          if (IsPunct(toks[m], "(")) ++depth;
          if (IsPunct(toks[m], ")")) --depth;
          if (depth == 1 && IsPunct(toks[m], ";")) {
            ++semis;
            if (semis == 1) c_begin = m + 1;
            if (semis == 2) c_end = m;
          }
        }
        if (semis >= 2 && c_begin < c_end) {
          report_region(TokenRange{c_begin, c_end}, "a loop bound");
        }
        continue;
      }
      // Array index regions: `base [ expr ]` — the *index* must be public.
      if (IsPunct(t, "[") && k > fn.body.begin &&
          (IsIdent(toks[k - 1]) || IsPunct(toks[k - 1], "]") ||
           IsPunct(toks[k - 1], ")"))) {
        int depth = 0;
        size_t e = k;
        for (; e < fn.body.end; ++e) {
          if (IsPunct(toks[e], "[")) ++depth;
          if (IsPunct(toks[e], "]")) {
            --depth;
            if (depth == 0) break;
          }
        }
        if (e > k + 1) {
          report_region(TokenRange{k + 1, e}, "an array index");
        }
      }
    }
  }
}

void CheckDpSpendCoverage(const Engine& engine, FlowAnalysis* out) {
  const auto& fns = engine.symbols.functions();
  const size_t n = fns.size();

  // Spend calls: the accountant's Add* family.
  static const std::set<std::string> kSpendCalls = {
      "AddGaussian", "AddSkellam", "AddSkellamWithDropouts", "AddEvent"};

  std::vector<bool> spends(n, false);
  std::vector<bool> draws(n, false);
  for (size_t i = 0; i < n; ++i) {
    for (const CallSite& call : fns[i].calls) {
      if (kSpendCalls.count(call.callee) > 0) spends[i] = true;
      if (engine.IsSamplerDraw(call)) draws[i] = true;
    }
  }
  // Transitive closure of "spends" over the call graph.
  std::vector<bool> tspends = spends;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (tspends[i]) continue;
      for (const FunctionIR* callee : engine.symbols.Callees(&fns[i])) {
        if (tspends[engine.symbols.IndexOf(callee)]) {
          tspends[i] = true;
          changed = true;
          break;
        }
      }
    }
  }

  // Roots: the SQM drivers.
  std::vector<size_t> roots;
  for (size_t i = 0; i < n; ++i) {
    const FunctionIR& fn = fns[i];
    const bool driver_name = fn.name == "RunSqm" || fn.name == "RunPartySqm";
    const bool evaluator_method = fn.name.rfind("Evaluate", 0) == 0 &&
                                  fn.owner.find("Sqm") != std::string::npos;
    if (driver_name || evaluator_method) roots.push_back(i);
  }

  // DFS carrying a "covered" flag: covered once any function on the path
  // transitively reaches a spend. A draw in an uncovered function is a
  // noise addition the ledger never accounts — the invariant violation.
  std::set<std::pair<size_t, bool>> visited;
  std::set<std::pair<std::string, int>> reported;
  std::vector<std::pair<size_t, bool>> stack;
  std::map<size_t, size_t> root_of;  // fn -> root for the message.
  for (size_t r : roots) {
    stack.push_back({r, false});
    while (!stack.empty()) {
      auto [i, covered] = stack.back();
      stack.pop_back();
      covered = covered || tspends[i];
      if (!visited.insert({i, covered}).second) continue;
      if (draws[i] && !covered && !IsHarnessFile(fns[i].file->path)) {
        for (const CallSite& call : fns[i].calls) {
          if (!engine.IsSamplerDraw(call)) continue;
          const auto key = std::make_pair(fns[i].file->path, call.line);
          if (!reported.insert(key).second) continue;
          Emit(out, *fns[i].file, "dp-spend-coverage", call.line,
               "sampler draw '" + call.callee + "' in '" + fns[i].Qualified() +
                   "' is reachable from the SQM driver '" +
                   fns[r].Qualified() +
                   "' but no PrivacyAccountant spend (AddSkellam/AddGaussian/"
                   "AddEvent) dominates it on this path — every noise draw "
                   "must be accounted in the privacy ledger");
        }
      }
      for (const FunctionIR* callee : engine.symbols.Callees(&fns[i])) {
        stack.push_back({engine.symbols.IndexOf(callee), covered});
      }
    }
  }
}

}  // namespace

std::vector<const FlowFinding*> FlowAnalysis::For(
    const std::string& check, const std::string& path) const {
  std::vector<const FlowFinding*> out;
  auto it = findings.find(check);
  if (it == findings.end()) return out;
  auto jt = it->second.find(path);
  if (jt == it->second.end()) return out;
  for (const FlowFinding& f : jt->second) out.push_back(&f);
  return out;
}

FlowAnalysis RunFlowAnalysis(const Project& project) {
  FlowAnalysis out;
  Engine engine(project);
  engine.ComputeSummaries();
  engine.PropagateRealTaint();
  CheckTaintToSinks(engine, &out);
  CheckSecretBranch(engine, &out);
  CheckDpSpendCoverage(engine, &out);
  for (auto& [check, by_path] : out.findings) {
    for (auto& [path, findings] : by_path) {
      std::stable_sort(findings.begin(), findings.end(),
                       [](const FlowFinding& a, const FlowFinding& b) {
                         return a.line < b.line;
                       });
    }
  }
  return out;
}

}  // namespace sqmlint
