#include <set>
#include <string>
#include <vector>

#include "sqmlint/checker.h"

namespace sqmlint {
namespace {

using Tokens = std::vector<Token>;

bool IsPunct(const Token& token, const char* text) {
  return token.kind == TokenKind::kPunct && token.text == text;
}
bool IsIdent(const Token& token) {
  return token.kind == TokenKind::kIdentifier;
}

/// Index just past the ')' matching the '(' at `open`; tokens.size() when
/// unbalanced.
size_t SkipParens(const Tokens& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "(")) ++depth;
    if (IsPunct(toks[i], ")")) {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return toks.size();
}

void Report(std::vector<Finding>* findings, const char* check,
            const SourceFile& file, int line, std::string message) {
  Finding finding;
  finding.check = check;
  finding.path = file.path;
  finding.line = line;
  finding.message = std::move(message);
  findings->push_back(std::move(finding));
}

// ---------------------------------------------------------------------------
// rng-discipline: all randomness flows through sqm::Rng (src/sampling/);
// std engines and libc rand are banned elsewhere, and protocol-
// deterministic modules must not read wall-clock time (a fuzz iteration,
// golden pin or deployment re-runs bit-exactly from its seed).
// ---------------------------------------------------------------------------
void CheckRngDiscipline(const Project& /*project*/, const SourceFile& file,
                        std::vector<Finding>* findings) {
  static const std::set<std::string> kEngines = {
      "mt19937",        "mt19937_64",    "minstd_rand", "minstd_rand0",
      "default_random_engine", "random_device", "ranlux24", "ranlux48",
      "ranlux24_base",  "ranlux48_base", "knuth_b"};
  static const std::set<std::string> kRandCalls = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "random"};
  static const std::set<std::string> kWallClockAnywhere = {"system_clock",
                                                           "gettimeofday"};
  static const std::set<std::string> kWallClockCalls = {
      "time",  "clock",   "localtime", "gmtime",
      "mktime", "ctime",  "asctime",   "strftime"};
  static const char* const kDeterministicModules[] = {
      "src/mpc/",  "src/poly/", "src/dp/",
      "src/math/", "src/vfl/",  "src/core/", "src/sampling/"};

  const bool in_sampling = PathInModule(file.path, "src/sampling/");
  bool deterministic = false;
  for (const char* module : kDeterministicModules) {
    deterministic = deterministic || PathInModule(file.path, module);
  }

  const Tokens& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i])) continue;
    const std::string& name = toks[i].text;
    const bool call_form = i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
    const bool member = i > 0 && (IsPunct(toks[i - 1], ".") ||
                                  IsPunct(toks[i - 1], "->"));

    if (!in_sampling && kEngines.count(name) > 0) {
      Report(findings, "rng-discipline", file, toks[i].line,
             "'" + name +
                 "' outside src/sampling/: all randomness must flow "
                 "through sqm::Rng so runs stay seed-reproducible");
      continue;
    }
    if (!in_sampling && kRandCalls.count(name) > 0 && call_form && !member) {
      Report(findings, "rng-discipline", file, toks[i].line,
             "libc '" + name +
                 "()' outside src/sampling/: use sqm::Rng (seeded, "
                 "reproducible, unbiased) instead");
      continue;
    }
    if (kWallClockAnywhere.count(name) > 0) {
      Report(findings, "rng-discipline", file, toks[i].line,
             "wall-clock '" + name +
                 "' is banned: protocol code uses the simulated clock or "
                 "steady_clock; wall time breaks transcript determinism");
      continue;
    }
    if (deterministic && kWallClockCalls.count(name) > 0 && call_form &&
        !member) {
      Report(findings, "rng-discipline", file, toks[i].line,
             "wall-clock call '" + name +
                 "()' in a protocol-deterministic module; seeded re-runs "
                 "(schedule fuzzing, golden pins) must be identical");
    }
  }
}

// ---------------------------------------------------------------------------
// field-capacity: raw + - * % on values declared Field::Element bypasses
// the checked field ops (Field::Add/Sub/Mul/Neg). p = 2^61 - 1 residues
// wrap silently under native uint64 arithmetic, corrupting results and
// invalidating the sensitivity analysis. src/mpc/field.cc implements the
// checked ops and is the one place raw arithmetic is allowed.
// ---------------------------------------------------------------------------
void CheckFieldCapacity(const Project& /*project*/, const SourceFile& file,
                        std::vector<Finding>* findings) {
  if (PathInModule(file.path, "src/mpc/field.cc")) return;
  const Tokens& toks = file.tokens;

  // File-local alias `using Element = ...` makes bare `Element` a field
  // type; otherwise only the qualified spelling (or mpc sources) count.
  bool element_alias = PathInModule(file.path, "src/mpc/");
  for (size_t i = 0; i + 2 < toks.size() && !element_alias; ++i) {
    element_alias = IsIdent(toks[i]) && toks[i].text == "using" &&
                    IsIdent(toks[i + 1]) && toks[i + 1].text == "Element" &&
                    IsPunct(toks[i + 2], "=");
  }

  std::set<std::string> scalars;
  std::set<std::string> vectors;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i])) continue;
    // `Field :: Element name` or (with the alias) `Element name`.
    if (toks[i].text == "Element") {
      const bool qualified = i >= 2 && IsPunct(toks[i - 1], "::") &&
                             IsIdent(toks[i - 2]) &&
                             toks[i - 2].text == "Field";
      const bool bare =
          element_alias && (i == 0 || !IsPunct(toks[i - 1], "::"));
      if (!qualified && !bare) continue;
      size_t j = i + 1;
      while (j < toks.size() && IsPunct(toks[j], "&")) ++j;
      if (j < toks.size() && IsIdent(toks[j]) &&
          (j + 1 >= toks.size() || !IsPunct(toks[j + 1], "("))) {
        scalars.insert(toks[j].text);
      }
      continue;
    }
    // `vector < ... Element ... > name` — skipped when the element type is
    // a pointer ('*' in the template region): indexing those yields
    // pointers, not field values.
    if (toks[i].text == "vector" && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "<")) {
      int depth = 0;
      bool has_element = false;
      bool has_pointer = false;
      size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        if (IsPunct(toks[j], "<")) ++depth;
        if (IsPunct(toks[j], ">")) --depth;
        if (IsPunct(toks[j], ">>")) depth -= 2;
        if (IsPunct(toks[j], "*")) has_pointer = true;
        if (IsIdent(toks[j]) && toks[j].text == "Element") {
          has_element = true;
        }
        if (depth <= 0 && j > i + 1) break;
      }
      if (!has_element || has_pointer) continue;
      size_t k = j + 1;
      while (k < toks.size() && IsPunct(toks[k], "&")) ++k;
      if (k < toks.size() && IsIdent(toks[k]) &&
          (k + 1 >= toks.size() || !IsPunct(toks[k + 1], "("))) {
        vectors.insert(toks[k].text);
      }
    }
  }
  if (scalars.empty() && vectors.empty()) return;

  // Walks back from `close` (a ']') to the identifier that owns the index
  // expression; empty string when the shape is more complex.
  auto index_base = [&](size_t close) -> std::string {
    int depth = 0;
    size_t i = close;
    while (true) {
      if (IsPunct(toks[i], "]")) ++depth;
      if (IsPunct(toks[i], "[")) {
        --depth;
        if (depth == 0) {
          if (i == 0) return "";
          if (IsIdent(toks[i - 1])) return toks[i - 1].text;
          if (IsPunct(toks[i - 1], "]")) {
            close = i - 1;  // Multi-dimensional: recurse one level out.
            i = close;
            depth = 0;
            continue;
          }
          return "";
        }
      }
      if (i == 0) return "";
      --i;
    }
  };

  static const std::set<std::string> kOps = {"+",  "-",  "*",  "%", "+=",
                                             "-=", "*=", "%=", "++", "--"};
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct || kOps.count(toks[i].text) == 0) {
      continue;
    }
    // A '*' not preceded by a value expression is a unary dereference, not
    // multiplication; only the binary form is field arithmetic.
    const bool deref =
        toks[i].text == "*" &&
        (i == 0 || (toks[i - 1].kind == TokenKind::kPunct &&
                    !IsPunct(toks[i - 1], "]") && !IsPunct(toks[i - 1], ")")));
    if (deref) continue;
    // `Element* a` / `const Element* a` is a pointer declarator: the token
    // to the left is the type name itself, which is never a field value.
    if (toks[i].text == "*" && i > 0 && IsIdent(toks[i - 1]) &&
        toks[i - 1].text == "Element") {
      continue;
    }
    std::string operand;
    if (i > 0) {
      if (IsIdent(toks[i - 1]) && scalars.count(toks[i - 1].text) > 0) {
        operand = toks[i - 1].text;
      } else if (IsPunct(toks[i - 1], "]")) {
        const std::string base = index_base(i - 1);
        if (vectors.count(base) > 0) operand = base + "[...]";
      }
    }
    if (operand.empty() && i + 1 < toks.size() && IsIdent(toks[i + 1])) {
      const std::string& right = toks[i + 1].text;
      if (scalars.count(right) > 0) {
        operand = right;
      } else if (vectors.count(right) > 0 && i + 2 < toks.size() &&
                 IsPunct(toks[i + 2], "[")) {
        operand = right + "[...]";
      }
    }
    if (operand.empty()) continue;
    Report(findings, "field-capacity", file, toks[i].line,
           "raw '" + toks[i].text + "' on Field::Element value '" + operand +
               "' bypasses the checked field ops; use "
               "Field::Add/Sub/Mul/Neg — native arithmetic wraps silently "
               "past p = 2^61 - 1 and breaks the sensitivity analysis");
  }
}

// ---------------------------------------------------------------------------
// mutex-annotation: src/net/ and src/obs/ are the concurrent modules; they
// must use the capability-annotated primitives from core/sync.h (raw std
// sync is invisible to clang's -Wthread-safety proof), and a file that
// declares a Mutex must carry SQM_GUARDED_BY annotations for the state the
// mutex protects.
// ---------------------------------------------------------------------------
void CheckMutexAnnotation(const Project& /*project*/, const SourceFile& file,
                          std::vector<Finding>* findings) {
  if (!PathInModule(file.path, "src/net/") &&
      !PathInModule(file.path, "src/obs/")) {
    return;
  }
  static const std::set<std::string> kRawSync = {
      "mutex",         "recursive_mutex",        "timed_mutex",
      "shared_mutex",  "condition_variable",     "condition_variable_any",
      "lock_guard",    "unique_lock",            "scoped_lock",
      "shared_lock"};

  const Tokens& toks = file.tokens;
  bool has_guarded_by = false;
  std::vector<size_t> mutex_decls;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i])) continue;
    const std::string& name = toks[i].text;
    if (name == "SQM_GUARDED_BY" || name == "SQM_PT_GUARDED_BY" ||
        name == "SQM_REQUIRES") {
      has_guarded_by = true;
    }
    if (kRawSync.count(name) > 0 && i >= 2 && IsPunct(toks[i - 1], "::") &&
        IsIdent(toks[i - 2]) && toks[i - 2].text == "std") {
      Report(findings, "mutex-annotation", file, toks[i].line,
             "raw std::" + name +
                 " in an annotated module; use sqm::Mutex / MutexLock / "
                 "CondVar from core/sync.h so -Wthread-safety can prove "
                 "the locking discipline");
    }
    // `Mutex name ;` — a mutex member/variable declaration.
    if (name == "Mutex" && i + 2 < toks.size() && IsIdent(toks[i + 1]) &&
        IsPunct(toks[i + 2], ";")) {
      mutex_decls.push_back(i);
    }
  }
  if (!has_guarded_by) {
    for (size_t i : mutex_decls) {
      Report(findings, "mutex-annotation", file, toks[i].line,
             "Mutex '" + toks[i + 1].text +
                 "' declared but no SQM_GUARDED_BY / SQM_REQUIRES "
                 "annotation in this file; annotate the state the mutex "
                 "guards (core/thread_annotations.h)");
    }
  }
}

// ---------------------------------------------------------------------------
// socket-discipline: src/net/tcp/socket.{h,cc} is the single module allowed
// to issue raw socket syscalls — every other file must go through its
// Status-returning wrappers (TcpTransport never touches an fd directly).
// Inside the wrapper module the errno-returning calls must not be used as
// bare discarded statements: a swallowed setsockopt/shutdown error becomes
// a hung party instead of a diagnosable Status. `close` is exempt — the
// destructor's best-effort close has no caller to report to.
// ---------------------------------------------------------------------------
void CheckSocketDiscipline(const Project& /*project*/, const SourceFile& file,
                           std::vector<Finding>* findings) {
  static const std::set<std::string> kSocketCalls = {
      "socket",     "connect",    "accept",      "accept4",     "bind",
      "listen",     "send",       "sendto",      "sendmsg",     "recv",
      "recvfrom",   "recvmsg",    "setsockopt",  "getsockopt",  "getsockname",
      "getpeername", "shutdown",  "poll",        "select",      "fcntl"};

  const bool in_socket_module = PathInModule(file.path, "src/net/tcp/socket.");
  const Tokens& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || kSocketCalls.count(toks[i].text) == 0) continue;
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
    const std::string& name = toks[i].text;

    // Qualification: `x.send(...)` / `p->poll(...)` are member calls and
    // `std::bind(...)` is a namespaced non-syscall — neither is a raw
    // socket call. A bare global `::send(...)` is exactly the raw form.
    const bool member = i > 0 && (IsPunct(toks[i - 1], ".") ||
                                  IsPunct(toks[i - 1], "->"));
    const bool scoped = i > 0 && IsPunct(toks[i - 1], "::");
    const bool namespaced = scoped && i >= 2 && IsIdent(toks[i - 2]);
    if (member || namespaced) continue;

    if (!in_socket_module) {
      Report(findings, "socket-discipline", file, toks[i].line,
             "raw socket call '" + name +
                 "' outside src/net/tcp/socket.{h,cc}; go through the "
                 "Status-returning wrappers there — they own errno "
                 "translation, deadlines and fd lifetime");
      continue;
    }

    // Inside the wrapper module: the call's int/ssize_t result must be
    // consumed. Bare `::shutdown(fd, ...);` as a statement discards the
    // error (a plain int return, which [[nodiscard]] on Status does not
    // cover).
    const size_t start = scoped ? i - 1 : i;
    bool starts = start == 0;
    if (start > 0) {
      const Token& prev = toks[start - 1];
      starts = IsPunct(prev, ";") || IsPunct(prev, "{") ||
               IsPunct(prev, "}") || IsPunct(prev, ")") ||
               (IsIdent(prev) && (prev.text == "else" || prev.text == "do"));
      // `(void)::send(...);` is an explicit, intentional discard.
      if (IsPunct(prev, ")") && start >= 3 && IsPunct(toks[start - 3], "(") &&
          IsIdent(toks[start - 2]) && toks[start - 2].text == "void") {
        starts = false;
      }
    }
    if (!starts) continue;
    const size_t after = SkipParens(toks, i + 1);
    if (after >= toks.size() || !IsPunct(toks[after], ";")) continue;
    Report(findings, "socket-discipline", file, toks[i].line,
           "result of '" + name +
               "' is discarded; socket syscalls report failure through "
               "their return value — check it or make the discard "
               "explicit with (void)");
  }
}

// ---------------------------------------------------------------------------
// retry-discipline: a sleep-family call inside a loop in src/net/ must
// consult a backoff/deadline helper. A bare fixed sleep in a retry loop is
// how reconnect storms and unbounded waits are born: the dialer that
// hammers a dead peer every 50 ms forever, or the poll loop that never
// checks its deadline. Pacing is visible lexically — the loop header or
// the sleep statement names a backoff, deadline, remaining-time, window or
// jitter value (InterruptibleSleep and the dialer backoff both do).
// ---------------------------------------------------------------------------
void CheckRetryDiscipline(const Project& /*project*/, const SourceFile& file,
                          std::vector<Finding>* findings) {
  if (!PathInModule(file.path, "src/net/")) return;
  static const std::set<std::string> kSleepCalls = {
      "sleep_for", "sleep_until", "usleep", "nanosleep", "sleep"};
  static const std::set<std::string> kPacingWords = {
      "backoff", "deadline", "remaining", "window", "jitter"};

  const Tokens& toks = file.tokens;
  auto has_pacing_word = [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end && j < toks.size(); ++j) {
      if (!IsIdent(toks[j])) continue;
      for (const std::string& word : IdentifierWords(toks[j].text)) {
        if (kPacingWords.count(word) > 0) return true;
      }
    }
    return false;
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || kSleepCalls.count(toks[i].text) == 0) continue;
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;

    // Walk the brace structure outward from the sleep; every enclosing
    // block whose owner is for/while/do marks the sleep as loop-resident,
    // and a pacing word in any such loop's header counts as consulted.
    bool in_loop = false;
    bool paced = false;
    int depth = 0;
    for (size_t k = i; k > 0;) {
      --k;
      if (IsPunct(toks[k], "}")) {
        ++depth;
        continue;
      }
      if (!IsPunct(toks[k], "{")) continue;
      if (depth > 0) {
        --depth;
        continue;
      }
      // toks[k] opens a block enclosing the sleep; classify its owner.
      if (k > 0 && IsPunct(toks[k - 1], ")")) {
        int pd = 0;
        size_t open = k - 1;
        while (open > 0) {
          if (IsPunct(toks[open], ")")) ++pd;
          if (IsPunct(toks[open], "(")) {
            --pd;
            if (pd == 0) break;
          }
          --open;
        }
        if (open > 0 && IsIdent(toks[open - 1]) &&
            (toks[open - 1].text == "for" ||
             toks[open - 1].text == "while")) {
          in_loop = true;
          paced = paced || has_pacing_word(open + 1, k - 1);
        }
      } else if (k > 0 && IsIdent(toks[k - 1]) && toks[k - 1].text == "do") {
        in_loop = true;
      }
    }
    if (!in_loop) continue;

    // The sleep's own statement also counts: `sleep_for(backoff)` or the
    // guarded `if (backoff > 0.0) sleep_for(...)` form.
    if (!paced) {
      size_t start = i;
      while (start > 0 && !IsPunct(toks[start - 1], ";") &&
             !IsPunct(toks[start - 1], "{") && !IsPunct(toks[start - 1], "}")) {
        --start;
      }
      size_t end = i;
      while (end < toks.size() && !IsPunct(toks[end], ";")) ++end;
      paced = has_pacing_word(start, end);
    }
    if (paced) continue;
    Report(findings, "retry-discipline", file, toks[i].line,
           "'" + toks[i].text +
               "' inside a loop with no backoff/deadline in sight; retry "
               "loops in src/net/ must pace themselves through a "
               "backoff/deadline/window helper (see InterruptibleSleep) or "
               "they become reconnect storms");
  }
}

// ---------------------------------------------------------------------------
// batch-discipline: the MPC hot paths (circuit evaluation, protocol
// multiply/open, the SQM driver) must not loop scalar
// Field::Add/Sub/Mul/Neg over an induction-indexed element — that is the
// pattern the span kernels (Field::AddVec/SubVec/MulVec/ScaleVec/
// LinearCombination/SumVec) and the Shamir *Batch entry points replaced.
// A scalar call in a counted loop whose arguments index by the loop
// variable is a de-vectorization regression; genuinely scalar sites carry
// // sqmlint:allow(batch-discipline).
// ---------------------------------------------------------------------------
void CheckBatchDiscipline(const Project& /*project*/, const SourceFile& file,
                          std::vector<Finding>* findings) {
  static const char* const kHotPaths[] = {
      "src/mpc/bgw.cc", "src/mpc/party_protocol.cc", "src/core/sqm.cc"};
  bool scoped = false;
  for (const char* path : kHotPaths) {
    scoped = scoped || PathInModule(file.path, path);
  }
  if (!scoped) return;

  static const std::set<std::string> kScalarOps = {"Add", "Sub", "Mul",
                                                   "Neg"};
  const Tokens& toks = file.tokens;
  std::set<size_t> reported;  // Token index of the op, to dedupe nesting.
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || toks[i].text != "for") continue;
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
    const size_t header_end = SkipParens(toks, i + 1);  // Past ')'.

    // Classic counted for only: the header holds two top-level ';'.
    // Range-fors iterate values, not indices — nothing to flag there.
    size_t first_semi = 0;
    int semis = 0;
    {
      int depth = 0;
      for (size_t j = i + 1; j + 1 < header_end; ++j) {
        if (IsPunct(toks[j], "(")) ++depth;
        if (IsPunct(toks[j], ")")) --depth;
        if (depth == 1 && IsPunct(toks[j], ";")) {
          if (++semis == 1) first_semi = j;
        }
      }
    }
    if (semis != 2) continue;

    // Induction variable: the last identifier before '=' in the init
    // clause (`for (size_t k = 0; ...` -> k).
    std::string loop_var;
    for (size_t j = i + 2; j < first_semi; ++j) {
      if (IsIdent(toks[j]) && j + 1 < first_semi && IsPunct(toks[j + 1], "=")) {
        loop_var = toks[j].text;
      }
    }
    if (loop_var.empty()) continue;

    // Loop body: braced block (or single statement up to ';').
    size_t body_begin = header_end;
    size_t body_end = body_begin;
    if (body_begin < toks.size() && IsPunct(toks[body_begin], "{")) {
      int depth = 0;
      for (size_t j = body_begin; j < toks.size(); ++j) {
        if (IsPunct(toks[j], "{")) ++depth;
        if (IsPunct(toks[j], "}")) {
          if (--depth == 0) {
            body_end = j;
            break;
          }
        }
      }
    } else {
      while (body_end < toks.size() && !IsPunct(toks[body_end], ";")) {
        ++body_end;
      }
    }

    // Field::Op(...) whose argument region indexes by the loop variable.
    for (size_t j = body_begin; j + 3 < body_end; ++j) {
      if (!(IsIdent(toks[j]) && toks[j].text == "Field" &&
            IsPunct(toks[j + 1], "::") && IsIdent(toks[j + 2]) &&
            kScalarOps.count(toks[j + 2].text) > 0 &&
            IsPunct(toks[j + 3], "("))) {
        continue;
      }
      const size_t args_end = SkipParens(toks, j + 3);
      bool indexed = false;
      int brackets = 0;
      for (size_t k = j + 4; k + 1 < args_end; ++k) {
        if (IsPunct(toks[k], "[")) ++brackets;
        if (IsPunct(toks[k], "]")) --brackets;
        if (brackets > 0 && IsIdent(toks[k]) && toks[k].text == loop_var) {
          indexed = true;
          break;
        }
      }
      if (!indexed || reported.count(j + 2) > 0) continue;
      reported.insert(j + 2);
      Report(findings, "batch-discipline", file, toks[j + 2].line,
             "scalar Field::" + toks[j + 2].text + " indexed by loop "
             "variable '" + loop_var + "' in an MPC hot path; use the "
             "span kernels (Field::AddVec/SubVec/MulVec/ScaleVec/"
             "LinearCombination/SumVec) or the Shamir ShareBatch/"
             "ReconstructBatch entry points — element-wise loops forfeit "
             "the batched lazy-reduction fast path");
    }
  }
}

// ---------------------------------------------------------------------------
// obs-discipline: span names are static identity, not data. The tracer
// stores `const char*` names without copying them, so the name argument of
// every Span declaration must be a string literal. (Secrets reaching an
// exported span argument are taint-flow's: AddArg and the Span
// declaration's arguments are among its sinks.)
// ---------------------------------------------------------------------------
void CheckObsDiscipline(const Project& /*project*/, const SourceFile& file,
                        std::vector<Finding>* findings) {
  // src/obs/ is where Span is DEFINED: its parameter lists and forwarding
  // bodies are not call sites. src/testing/ is the harness.
  if (PathInModule(file.path, "src/obs/") ||
      PathInModule(file.path, "src/testing/")) {
    return;
  }
  const Tokens& toks = file.tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    // Span is only checked in declaration form `Span ident(...)` (with or
    // without a namespace qualifier before it): matching `Span(` directly
    // would trip on the constructor signatures in obs/trace.h.
    if (!IsIdent(toks[i]) || toks[i].text != "Span" ||
        !IsIdent(toks[i + 1]) || !IsPunct(toks[i + 2], "(")) {
      continue;
    }
    if (toks[i + 3].kind != TokenKind::kString) {
      Report(findings, "obs-discipline", file, toks[i].line,
             "name passed to 'Span' is not a string literal; span names are "
             "static identity (the tracer stores the pointer without "
             "copying the name)");
    }
  }
}

}  // namespace

// Flow-engine checks, defined in flow_checks.cc over the interprocedural
// analysis that BuildProject precomputes.
void CheckTaintFlow(const Project& project, const SourceFile& file,
                    std::vector<Finding>* findings);
void CheckDpSpendCoverage(const Project& project, const SourceFile& file,
                          std::vector<Finding>* findings);
void CheckSecretBranch(const Project& project, const SourceFile& file,
                       std::vector<Finding>* findings);

const std::vector<Check>& AllChecks() {
  static const std::vector<Check> kChecks = {
      {"taint-flow",
       "secret value (flowing from a share/mask/raw-draw source or a "
       "secret-named parameter, or itself secret-named) reaching a log, "
       "obs-export or un-MACed wire sink",
       CheckTaintFlow},
      {"dp-spend-coverage",
       "sampler draw reachable from the SQM drivers with no accountant "
       "spend dominating it",
       CheckDpSpendCoverage},
      {"secret-branch",
       "secret-tainted value steering a branch, loop bound or array index "
       "in src/mpc/ outside constant-time helpers",
       CheckSecretBranch},
      {"rng-discipline",
       "std/libc randomness outside src/sampling/, wall clock in "
       "deterministic modules",
       CheckRngDiscipline},
      {"field-capacity",
       "raw arithmetic on Field::Element values bypassing checked field ops",
       CheckFieldCapacity},
      {"mutex-annotation",
       "raw std sync or unannotated Mutex state in src/net/ + src/obs/",
       CheckMutexAnnotation},
      {"socket-discipline",
       "raw socket syscalls outside src/net/tcp/socket.*, or their results "
       "discarded inside it",
       CheckSocketDiscipline},
      {"retry-discipline",
       "sleep inside a src/net/ loop without a backoff/deadline helper",
       CheckRetryDiscipline},
      {"batch-discipline",
       "element-wise scalar Field ops in MPC hot paths that the batched "
       "span kernels replace",
       CheckBatchDiscipline},
      {"obs-discipline", "non-literal span names",
       CheckObsDiscipline},
  };
  return kChecks;
}

}  // namespace sqmlint
