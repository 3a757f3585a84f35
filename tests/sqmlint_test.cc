// Drives the sqmlint checker in-process over fixture snippets: for every
// check, one case proving it fires and one proving a named suppression
// silences it. Fixtures are raw strings — the lexer treats literals as
// single tokens, so sqmlint's own scan of this file stays clean.

#include "sqmlint/checker.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/json.h"
#include "sqmlint/baseline.h"

namespace {

using sqmlint::Finding;

std::vector<Finding> Lint(const std::string& path, const std::string& code) {
  return sqmlint::RunChecks(sqmlint::BuildProject({{path, code}}));
}

/// Multi-file variant for the interprocedural flow fixtures.
std::vector<Finding> LintFiles(
    const std::vector<std::pair<std::string, std::string>>& files) {
  return sqmlint::RunChecks(sqmlint::BuildProject(files));
}

/// Findings for `check` with the given suppression state.
int Count(const std::vector<Finding>& findings, const std::string& check,
          bool suppressed) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.check == check && f.suppressed == suppressed) ++n;
  }
  return n;
}

int Active(const std::vector<Finding>& findings, const std::string& check) {
  return Count(findings, check, false);
}

// ---------------------------------------------------------------- unchecked-status

constexpr char kDiscardedStatus[] = R"cpp(
Status Flush(int fd);
void f(int fd) {
  Flush(fd);
}
)cpp";

TEST(UncheckedStatus, FiresOnDiscardedCall) {
  const auto findings = Lint("src/dp/x.cc", kDiscardedStatus);
  EXPECT_EQ(Active(findings, "unchecked-status"), 1);
}

TEST(UncheckedStatus, SuppressionSilences) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
Status Flush(int fd);
void f(int fd) {
  Flush(fd);  // sqmlint:allow(unchecked-status)
}
)cpp");
  EXPECT_EQ(Active(findings, "unchecked-status"), 0);
  EXPECT_EQ(Count(findings, "unchecked-status", true), 1);
}

TEST(UncheckedStatus, VoidCastAndAssignmentAreChecked) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
Status Flush(int fd);
void f(int fd) {
  (void)Flush(fd);
  Status s = Flush(fd);
}
)cpp");
  EXPECT_EQ(Active(findings, "unchecked-status"), 0);
}

TEST(UncheckedStatus, AmbiguousNameIsSkipped) {
  // `Add` is declared both Status-returning and void-returning; without
  // type resolution the call is ambiguous, so the lexicon drops the name
  // ([[nodiscard]] still covers the real sites at compile time).
  const auto findings = Lint("src/dp/x.cc", R"cpp(
Status Add(int x);
void g() { Add(1); }
struct Counter { void Add(int n); };
void h(Counter& c) { c.Add(1); }
)cpp");
  EXPECT_EQ(Active(findings, "unchecked-status"), 0);
}

TEST(UncheckedStatus, ResultReturnTypeCounts) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
Result<std::vector<int>> Parse(const char* s);
void f(const char* s) {
  Parse(s);
}
)cpp");
  EXPECT_EQ(Active(findings, "unchecked-status"), 1);
}

// ------------------------------------------------------------------- secret-taint

constexpr char kLoggedShare[] = R"cpp(
void f(const std::vector<uint64_t>& noise_shares) {
  SQM_LOG(kInfo) << "first " << noise_shares[0];
}
)cpp";

TEST(SecretTaint, FiresOnShareReachingLogSink) {
  const auto findings = Lint("src/mpc/x.cc", kLoggedShare);
  EXPECT_EQ(Active(findings, "secret-taint"), 1);
}

TEST(SecretTaint, SuppressionSilences) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(const std::vector<uint64_t>& noise_shares) {
  // sqmlint:allow(secret-taint)
  SQM_LOG(kInfo) << "first " << noise_shares[0];
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-taint"), 0);
  EXPECT_EQ(Count(findings, "secret-taint", true), 1);
}

TEST(SecretTaint, TestingBoundaryIsAllowlisted) {
  const auto findings = Lint("src/testing/x.cc", kLoggedShare);
  EXPECT_EQ(Active(findings, "secret-taint"), 0);
}

TEST(SecretTaint, WordBoundariesAvoidSharedPtr) {
  // "shared" is not "share": lexicon matching is per identifier word.
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(const std::shared_ptr<int>& shared_state) {
  SQM_LOG(kInfo) << "ptr " << shared_state.use_count();
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-taint"), 0);
}

TEST(SecretTaint, FiresOnObsArgumentSink) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(Span& span, uint64_t mask_value) {
  span.AddArg("m", mask_value);
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-taint"), 1);
}

// ----------------------------------------------------------------- rng-discipline

constexpr char kStdEngine[] = R"cpp(
#include <random>
void f() {
  std::mt19937 gen(42);
}
)cpp";

TEST(RngDiscipline, FiresOnStdEngineOutsideSampling) {
  const auto findings = Lint("src/net/x.cc", kStdEngine);
  EXPECT_GE(Active(findings, "rng-discipline"), 1);
}

TEST(RngDiscipline, SamplingModuleIsAllowlisted) {
  const auto findings = Lint("src/sampling/x.cc", kStdEngine);
  EXPECT_EQ(Active(findings, "rng-discipline"), 0);
}

TEST(RngDiscipline, SuppressionSilences) {
  const auto findings = Lint("src/net/x.cc", R"cpp(
void f() {
  std::mt19937 gen(42);  // sqmlint:allow(rng-discipline)
}
)cpp");
  EXPECT_EQ(Active(findings, "rng-discipline"), 0);
  EXPECT_EQ(Count(findings, "rng-discipline", true), 1);
}

TEST(RngDiscipline, WallClockInDeterministicModule) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f() {
  long t = time(nullptr);
}
)cpp");
  EXPECT_EQ(Active(findings, "rng-discipline"), 1);
}

TEST(RngDiscipline, SystemClockBannedEverywhere) {
  const auto findings = Lint("tests/x.cc", R"cpp(
void f() {
  auto t = std::chrono::system_clock::now();
}
)cpp");
  EXPECT_EQ(Active(findings, "rng-discipline"), 1);
}

// ----------------------------------------------------------------- field-capacity

constexpr char kRawAdd[] = R"cpp(
void f() {
  Field::Element a = 1;
  Field::Element b = 2;
  Field::Element c = a + b;
}
)cpp";

TEST(FieldCapacity, FiresOnRawArithmetic) {
  const auto findings = Lint("src/vfl/x.cc", kRawAdd);
  EXPECT_EQ(Active(findings, "field-capacity"), 1);
}

TEST(FieldCapacity, SuppressionSilences) {
  const auto findings = Lint("src/vfl/x.cc", R"cpp(
void f() {
  Field::Element a = 1;
  Field::Element b = 2;
  Field::Element c = a + b;  // sqmlint:allow(field-capacity)
}
)cpp");
  EXPECT_EQ(Active(findings, "field-capacity"), 0);
  EXPECT_EQ(Count(findings, "field-capacity", true), 1);
}

TEST(FieldCapacity, CheckedOpsAreClean) {
  const auto findings = Lint("src/vfl/x.cc", R"cpp(
void f() {
  Field::Element a = 1;
  Field::Element b = 2;
  Field::Element c = Field::Add(a, b);
}
)cpp");
  EXPECT_EQ(Active(findings, "field-capacity"), 0);
}

TEST(FieldCapacity, FieldImplementationIsAllowlisted) {
  const auto findings = Lint("src/mpc/field.cc", kRawAdd);
  EXPECT_EQ(Active(findings, "field-capacity"), 0);
}

TEST(FieldCapacity, PointerDeclaratorIsNotMultiplication) {
  // Span-kernel signatures declare `const Element* a` where `a` is also a
  // tracked scalar name elsewhere in the file; the '*' after the type
  // name is a declarator, not field arithmetic.
  const auto findings = Lint("src/vfl/x.h", R"cpp(
struct Field {
  using Element = uint64_t;
  static Element Add(Element a, Element b);
  static void AddVec(const Element* a, const Element* b, Element* out,
                     size_t n);
};
)cpp");
  EXPECT_EQ(Active(findings, "field-capacity"), 0);
}

TEST(FieldCapacity, VectorElementIndexing) {
  const auto findings = Lint("src/vfl/x.cc", R"cpp(
void f(std::vector<Field::Element>& shares_vec) {
  shares_vec[0] += 7;
}
)cpp");
  EXPECT_EQ(Active(findings, "field-capacity"), 1);
}

// --------------------------------------------------------------- mutex-annotation

constexpr char kRawStdMutex[] = R"cpp(
#include <mutex>
struct S {
  std::mutex mu_;
};
)cpp";

TEST(MutexAnnotation, FiresOnRawStdMutexInNet) {
  const auto findings = Lint("src/net/x.h", kRawStdMutex);
  EXPECT_GE(Active(findings, "mutex-annotation"), 1);
}

TEST(MutexAnnotation, OtherModulesOutOfScope) {
  const auto findings = Lint("src/dp/x.h", kRawStdMutex);
  EXPECT_EQ(Active(findings, "mutex-annotation"), 0);
}

TEST(MutexAnnotation, SuppressionSilences) {
  const auto findings = Lint("src/net/x.h", R"cpp(
struct S {
  std::mutex mu_;  // sqmlint:allow(mutex-annotation)
};
)cpp");
  EXPECT_EQ(Active(findings, "mutex-annotation"), 0);
  EXPECT_EQ(Count(findings, "mutex-annotation", true), 1);
}

TEST(MutexAnnotation, UnannotatedMutexMember) {
  const auto findings = Lint("src/obs/x.h", R"cpp(
struct S {
  Mutex mu_;
  int guarded_value = 0;
};
)cpp");
  EXPECT_EQ(Active(findings, "mutex-annotation"), 1);
}

TEST(MutexAnnotation, GuardedByAnnotationSatisfies) {
  const auto findings = Lint("src/obs/x.h", R"cpp(
struct S {
  Mutex mu_;
  int guarded_value SQM_GUARDED_BY(mu_) = 0;
};
)cpp");
  EXPECT_EQ(Active(findings, "mutex-annotation"), 0);
}

// -------------------------------------------------------------- socket-discipline

constexpr char kRawConnect[] = R"cpp(
void f(int fd, const sockaddr* addr, unsigned len) {
  if (::connect(fd, addr, len) != 0) return;
}
)cpp";

TEST(SocketDiscipline, FiresOnRawCallOutsideSocketModule) {
  const auto findings = Lint("src/net/tcp/tcp_transport.cc", kRawConnect);
  EXPECT_EQ(Active(findings, "socket-discipline"), 1);
}

TEST(SocketDiscipline, SocketModuleIsAllowlisted) {
  const auto findings = Lint("src/net/tcp/socket.cc", kRawConnect);
  EXPECT_EQ(Active(findings, "socket-discipline"), 0);
}

TEST(SocketDiscipline, SuppressionSilences) {
  const auto findings = Lint("src/net/tcp/tcp_transport.cc", R"cpp(
void f(int fd, const sockaddr* addr, unsigned len) {
  // sqmlint:allow(socket-discipline)
  if (::connect(fd, addr, len) != 0) return;
}
)cpp");
  EXPECT_EQ(Active(findings, "socket-discipline"), 0);
  EXPECT_EQ(Count(findings, "socket-discipline", true), 1);
}

TEST(SocketDiscipline, UnqualifiedCallAlsoFires) {
  const auto findings = Lint("src/core/x.cc", R"cpp(
void f(int fd) {
  listen(fd, 64);
}
)cpp");
  EXPECT_EQ(Active(findings, "socket-discipline"), 1);
}

TEST(SocketDiscipline, MemberAndNamespacedCallsAreClean) {
  // x.send() is a method, std::bind is the functional utility — neither
  // is a socket syscall.
  const auto findings = Lint("src/core/x.cc", R"cpp(
void f(Channel& x, Fn g) {
  x.send(1);
  auto h = std::bind(g, 2);
}
)cpp");
  EXPECT_EQ(Active(findings, "socket-discipline"), 0);
}

TEST(SocketDiscipline, DiscardedResultInsideSocketModule) {
  const auto findings = Lint("src/net/tcp/socket.cc", R"cpp(
void f(int fd) {
  ::shutdown(fd, 2);
}
)cpp");
  EXPECT_EQ(Active(findings, "socket-discipline"), 1);
}

TEST(SocketDiscipline, CheckedAndVoidCastInsideSocketModule) {
  const auto findings = Lint("src/net/tcp/socket.cc", R"cpp(
void f(int fd) {
  const int rc = ::shutdown(fd, 2);
  (void)::shutdown(fd, rc);
  if (::listen(fd, 64) != 0) return;
}
)cpp");
  EXPECT_EQ(Active(findings, "socket-discipline"), 0);
}

// ------------------------------------------------------------- suppression rules

TEST(Suppression, BareDirectiveIsItselfAFinding) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
int f();  // sqmlint:allow
)cpp");
  EXPECT_EQ(Active(findings, "suppression-syntax"), 1);
}

TEST(Suppression, WrongCheckNameDoesNotSilence) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
Status Flush(int fd);
void f(int fd) {
  Flush(fd);  // sqmlint:allow(rng-discipline)
}
)cpp");
  EXPECT_EQ(Active(findings, "unchecked-status"), 1);
}

TEST(Suppression, DirectiveAboveOffendingLine) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
Status Flush(int fd);
void f(int fd) {
  // sqmlint:allow(unchecked-status)
  Flush(fd);
}
)cpp");
  EXPECT_EQ(Active(findings, "unchecked-status"), 0);
}

// -------------------------------------------------------------- retry-discipline

constexpr char kBareRetrySleep[] = R"cpp(
void Dial() {
  while (true) {
    if (TryConnect()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}
)cpp";

TEST(RetryDiscipline, FiresOnUnpacedSleepInLoop) {
  const auto findings = Lint("src/net/tcp/x.cc", kBareRetrySleep);
  EXPECT_EQ(Active(findings, "retry-discipline"), 1);
}

TEST(RetryDiscipline, OutsideNetModuleIsIgnored) {
  const auto findings = Lint("src/dp/x.cc", kBareRetrySleep);
  EXPECT_EQ(Active(findings, "retry-discipline"), 0);
}

TEST(RetryDiscipline, SleepOutsideLoopIsFine) {
  const auto findings = Lint("src/net/x.cc", R"cpp(
void Settle() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}
)cpp");
  EXPECT_EQ(Active(findings, "retry-discipline"), 0);
}

TEST(RetryDiscipline, BackoffInStatementPaces) {
  const auto findings = Lint("src/net/x.cc", R"cpp(
void Recv() {
  double backoff = 0.001;
  for (;;) {
    if (Ready()) return;
    if (backoff > 0.0) std::this_thread::sleep_for(ToDuration(backoff));
    backoff *= 2.0;
  }
}
)cpp");
  EXPECT_EQ(Active(findings, "retry-discipline"), 0);
}

TEST(RetryDiscipline, DeadlineInLoopHeaderPaces) {
  const auto findings = Lint("src/net/tcp/x.cc", R"cpp(
bool Wait(Clock::time_point deadline) {
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return true;
}
)cpp");
  EXPECT_EQ(Active(findings, "retry-discipline"), 0);
}

TEST(RetryDiscipline, DoWhileIsALoopToo) {
  const auto findings = Lint("src/net/x.cc", R"cpp(
void Poll() {
  do {
    ::usleep(1000);
  } while (!Done());
}
)cpp");
  EXPECT_EQ(Active(findings, "retry-discipline"), 1);
}

TEST(RetryDiscipline, SuppressionSilences) {
  const auto findings = Lint("src/net/tcp/x.cc", R"cpp(
void Stall() {
  for (;;) {
    // sqmlint:allow(retry-discipline)
    std::this_thread::sleep_for(Seconds(stall_seconds));
    return;
  }
}
)cpp");
  EXPECT_EQ(Active(findings, "retry-discipline"), 0);
  EXPECT_EQ(Count(findings, "retry-discipline", true), 1);
}

// ------------------------------------------------------------- batch-discipline

constexpr char kScalarLoopInHotPath[] = R"cpp(
void Recombine(std::vector<Field::Element>& out, Field::Element delta,
               size_t n) {
  for (size_t k = 0; k < n; ++k) {
    out[k] = Field::Add(out[k], delta);
  }
}
)cpp";

TEST(BatchDiscipline, FiresOnInductionIndexedScalarOp) {
  const auto findings = Lint("src/mpc/bgw.cc", kScalarLoopInHotPath);
  EXPECT_EQ(Active(findings, "batch-discipline"), 1);
}

TEST(BatchDiscipline, OutsideHotPathIsIgnored) {
  // Same code outside the scoped hot-path files: the kernels are an
  // optimization contract for the multiply/open/driver loops, not a
  // repo-wide style rule.
  const auto findings = Lint("src/mpc/ops.cc", kScalarLoopInHotPath);
  EXPECT_EQ(Active(findings, "batch-discipline"), 0);
}

TEST(BatchDiscipline, VectorKernelAndGateIndexingAreClean) {
  const auto findings = Lint("src/mpc/party_protocol.cc", R"cpp(
void Walk(std::vector<Field::Element>& shares, const Circuit& circuit,
          const Field::Element* term, size_t n) {
  Field::AddVec(shares.data(), term, shares.data(), n);
  for (size_t w = 0; w < circuit.size(); ++w) {
    const Gate& gate = circuit[w];
    shares[w] = Field::Add(shares[gate.lhs], shares[gate.rhs]);
  }
}
)cpp");
  EXPECT_EQ(Active(findings, "batch-discipline"), 0);
}

TEST(BatchDiscipline, RangeForIsNotACountedLoop) {
  const auto findings = Lint("src/mpc/bgw.cc", R"cpp(
void Sum(const std::vector<Field::Element>& xs, Field::Element& acc) {
  for (Field::Element s : xs) acc = Field::Add(acc, s);
}
)cpp");
  EXPECT_EQ(Active(findings, "batch-discipline"), 0);
}

TEST(BatchDiscipline, SuppressionSilences) {
  const auto findings = Lint("src/core/sqm.cc", R"cpp(
void Fold(std::vector<Field::Element>& out, Field::Element delta, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    out[k] = Field::Add(out[k], delta);  // sqmlint:allow(batch-discipline)
  }
}
)cpp");
  EXPECT_EQ(Active(findings, "batch-discipline"), 0);
  EXPECT_EQ(Count(findings, "batch-discipline", true), 1);
}

// ---------------------------------------------------------------- obs-discipline

TEST(ObsDiscipline, FiresOnDynamicSpanName) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(const char* phase) {
  Span span(phase, "mpc");
}
)cpp");
  EXPECT_EQ(Active(findings, "obs-discipline"), 1);
}

TEST(ObsDiscipline, FiresOnSecretSpanAnnotation) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(Span& span, uint64_t share_count) {
  span.AddArg("n", share_count);
}
)cpp");
  EXPECT_EQ(Active(findings, "obs-discipline"), 1);
}

TEST(ObsDiscipline, LiteralNamesAndCleanArgsPass) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(size_t level) {
  Span span("bgw.mul", "mpc");
  span.AddArg("level", static_cast<int64_t>(level));
}
)cpp");
  EXPECT_EQ(Active(findings, "obs-discipline"), 0);
}

TEST(ObsDiscipline, ConstructorSignatureIsNotAName) {
  // The Span declaration in obs/trace.h ("Span(const char* name...)") and
  // the deleted copy constructor must not read as dynamic-name call sites.
  const auto findings = Lint("src/obs/trace.h", R"cpp(
class Span {
 public:
  explicit Span(const char* name, const char* category = "sqm");
  Span(const Span&) = delete;
};
)cpp");
  EXPECT_EQ(Active(findings, "obs-discipline"), 0);
}

TEST(ObsDiscipline, SuppressionSilences) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(const char* phase) {
  Span span(phase, "mpc");  // sqmlint:allow(obs-discipline)
}
)cpp");
  EXPECT_EQ(Active(findings, "obs-discipline"), 0);
  EXPECT_EQ(Count(findings, "obs-discipline", true), 1);
}

// ------------------------------------------------------------------ JSON output

TEST(Json, FindingsAndSummaryShapes) {
  const auto project =
      sqmlint::BuildProject({{"src/dp/x.cc", kDiscardedStatus}});
  const auto findings = sqmlint::RunChecks(project);
  const std::string json = sqmlint::RenderJson(project, findings);
  EXPECT_NE(json.find("\"check\":\"unchecked-status\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"src/dp/x.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"summary\":{\"files\":1,\"active\":1,\"suppressed\":0}"),
            std::string::npos);
}

TEST(Json, SuppressedFindingMarked) {
  const auto project = sqmlint::BuildProject({{"src/vfl/x.cc", R"cpp(
void f() {
  Field::Element a = 1;
  Field::Element r = a * a;  // sqmlint:allow(field-capacity)
}
)cpp"}});
  const auto findings = sqmlint::RunChecks(project);
  const std::string json = sqmlint::RenderJson(project, findings);
  EXPECT_NE(json.find("\"suppressed\":true"), std::string::npos);
  EXPECT_EQ(sqmlint::CountActive(findings), 0u);
}

// ------------------------------------------------------------------ lexer rules

TEST(Lexer, LiteralsAreInert) {
  // Engine names and secret words inside string literals never fire.
  const auto findings = Lint("src/net/x.cc", R"cpp(
const char* kDoc = "std::mt19937 and noise_shares and time(nullptr)";
)cpp");
  EXPECT_EQ(sqmlint::CountActive(findings), 0u);
}

TEST(Lexer, CheckSubsetSelection) {
  const auto project = sqmlint::BuildProject({{"src/net/x.cc", kStdEngine}});
  const auto findings = sqmlint::RunChecks(project, {"secret-taint"});
  EXPECT_EQ(sqmlint::CountActive(findings), 0u);
}

// ------------------------------------------------------------- lexer edge cases

TEST(Lexer, RawStringContainingCommentMarkerIsInert) {
  // A raw string holding "//" must not swallow the rest of the file: the
  // statement after it still lexes and the taint still fires.
  const auto findings = Lint("src/mpc/x.cc", R"fix(
const char* kDoc = R"(see https://example.com // not a comment)";
void f(const std::vector<uint64_t>& noise_shares) {
  SQM_LOG(kInfo) << noise_shares[0];
}
)fix");
  EXPECT_EQ(Active(findings, "secret-taint"), 1);
}

TEST(Lexer, LineContinuationSplicesStatement) {
  // A backslash-newline inside a statement (the multi-line macro idiom)
  // splices: the sink and the secret land in one token stream.
  const auto findings = Lint("src/mpc/x.cc",
                             "void f(const std::vector<uint64_t>& "
                             "noise_shares) {\n"
                             "  SQM_LOG(kInfo) << \\\n"
                             "      noise_shares[0];\n"
                             "}\n");
  EXPECT_EQ(Active(findings, "secret-taint"), 1);
}

TEST(Lexer, LineContinuationInsideMacroDefinition) {
  const auto findings = Lint("src/mpc/x.cc",
                             "#define LOG_FIRST(v) \\\n"
                             "  SQM_LOG(kInfo) << (v)[0]\n"
                             "void f(const std::vector<uint64_t>& "
                             "noise_shares) {\n"
                             "  LOG_FIRST(noise_shares);\n"
                             "}\n");
  EXPECT_EQ(Active(findings, "secret-taint"), 1);
}

TEST(Lexer, NestedTemplateCloseDoesNotConfuseIr) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
std::vector<std::vector<uint64_t>> MakeMatrix(size_t n);
void f(size_t n) {
  std::map<int, std::vector<std::pair<int, int>>> index;
  auto m = MakeMatrix(n);
  (void)index;
  (void)m;
}
)cpp");
  EXPECT_EQ(sqmlint::CountActive(findings), 0u);
}

TEST(Lexer, AllowDirectiveInsideMultiLineStatement) {
  // The directive trails the first physical line of a statement whose
  // finding is reported on that same line; the next-line span also covers
  // continuations placed above the offending token.
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(const std::vector<uint64_t>& noise_shares) {
  SQM_LOG(kInfo)  // sqmlint:allow(secret-taint)
      << noise_shares[0];
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-taint"), 0);
  EXPECT_EQ(Count(findings, "secret-taint", true), 1);
}

// -------------------------------------------------------------------- taint-flow

TEST(TaintFlow, FiresOnSourceReachingLogIntraprocedural) {
  // `blob` carries no secret-looking name, so the lexicon is blind; the
  // flow engine tracks the Share() return into the log statement.
  const auto findings = Lint("src/dp/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto blob = scheme.Share(42);
  SQM_LOG(kInfo) << "payload " << blob[0];
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
  EXPECT_EQ(Active(findings, "secret-taint"), 0);
}

TEST(TaintFlow, ShareBatchWithTailIsASource) {
  // The dealing call PartyProtocol::DealInput makes.
  const auto findings = Lint("src/dp/x.cc", R"cpp(
void f(ShamirScheme& scheme, const std::vector<uint64_t>& v, Rng& rng) {
  auto blob = scheme.ShareBatchWithTail(v, 2, rng);
  SQM_LOG(kInfo) << blob[0];
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(TaintFlow, InterproceduralSourceInCalleeSinkInCaller) {
  // The source lives in one function, the sink in its caller: the return
  // summary of MakeBlob carries the secret bit across the call.
  const auto findings = Lint("src/dp/x.cc", R"cpp(
std::vector<uint64_t> MakeBlob(ShamirScheme& scheme) {
  auto v = scheme.Share(7);
  return v;
}
void Publish(ShamirScheme& scheme) {
  auto blob = MakeBlob(scheme);
  SQM_LOG(kInfo) << blob[0];
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(TaintFlow, CrossFileFlowTheLexiconProvablyMisses) {
  // Producer and consumer live in different translation units and no
  // identifier smells secret — the legacy lexicon check stays silent
  // (asserted) while the symbol-graph propagation connects the files.
  const auto findings = LintFiles(
      {{"src/dp/dealer.cc", R"cpp(
std::vector<uint64_t> DealerOutput(ShamirScheme& scheme, uint64_t v) {
  auto blob = scheme.Share(v);
  return blob;
}
)cpp"},
       {"src/core/emit.cc", R"cpp(
void Publish(ShamirScheme& scheme) {
  auto payload = DealerOutput(scheme, 7);
  SQM_LOG(kInfo) << "payload " << payload[0];
}
)cpp"}});
  EXPECT_EQ(Active(findings, "secret-taint"), 0);
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(TaintFlow, ArgumentTaintReachesCalleeParameter) {
  const auto findings = LintFiles(
      {{"src/core/writer.cc", R"cpp(
void WriteOut(const std::vector<uint64_t>& data) {
  SQM_LOG(kInfo) << data[0];
}
)cpp"},
       {"src/dp/flow.cc", R"cpp(
void Run(ShamirScheme& scheme) {
  auto blob = scheme.Share(3);
  WriteOut(blob);
}
)cpp"}});
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(TaintFlow, DeclassifyOnSinkReportsButDoesNotGate) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto blob = scheme.Share(42);
  SQM_LOG(kInfo) << blob[0];  // sqmlint:declassify(unit-scale demo value, not a real share)
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
  EXPECT_EQ(Count(findings, "taint-flow", true), 1);
}

TEST(TaintFlow, DeclassifyOnCallBoundaryStopsPropagation) {
  // Declassifying where the value crosses into the callee is a flow
  // barrier: nothing downstream fires, in either file.
  const auto findings = LintFiles(
      {{"src/core/writer.cc", R"cpp(
void WriteOut(const std::vector<uint64_t>& data) {
  SQM_LOG(kInfo) << data[0];
}
)cpp"},
       {"src/dp/flow.cc", R"cpp(
void Run(ShamirScheme& scheme) {
  auto blob = scheme.Share(3);
  WriteOut(blob);  // sqmlint:declassify(post-aggregation public estimate)
}
)cpp"}});
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
}

TEST(TaintFlow, MalformedDeclassifyIsItselfReported) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto blob = scheme.Share(42);
  SQM_LOG(kInfo) << blob[0];  // sqmlint:declassify
}
)cpp");
  EXPECT_EQ(Active(findings, "declassify-syntax"), 1);
  // The flow finding still gates: a reasonless declassify covers nothing.
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(TaintFlow, SizeAccessorLaundersTaint) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto blob = scheme.Share(42);
  SQM_LOG(kInfo) << "count " << blob.size();
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
}

TEST(TaintFlow, WireSinkOutsideSeamFires) {
  const auto findings = Lint("src/obs/exporter.cc", R"cpp(
void f(Transport& transport, ShamirScheme& scheme) {
  auto blob = scheme.Share(42);
  transport.Send(1, blob);
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(TaintFlow, WireSinkInsideSeamIsTheProtocol) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(Transport& transport, ShamirScheme& scheme) {
  auto blob = scheme.Share(42);
  transport.Send(1, blob);
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
}

TEST(TaintFlow, ObsSpanArgumentSinkFires) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
void f(Span& span, ShamirScheme& scheme) {
  auto blob = scheme.Share(42);
  span.AddArg("v", blob[0]);
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(TaintFlow, HarnessFilesNeitherSeedNorSink) {
  // Test code builds and prints secret material on purpose: a tests/ file
  // produces no flow findings and does not taint src/ callees.
  const auto findings = LintFiles(
      {{"src/core/writer.cc", R"cpp(
void WriteOut(const std::vector<uint64_t>& data) {
  SQM_LOG(kInfo) << data[0];
}
)cpp"},
       {"tests/flow_test.cc", R"cpp(
void Exercise(ShamirScheme& scheme) {
  auto blob = scheme.Share(3);
  SQM_LOG(kInfo) << blob[0];
  WriteOut(blob);
}
)cpp"}});
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
}

TEST(TaintFlow, NoFlowFallbackSkipsEngine) {
  const auto project = sqmlint::BuildProject({{"src/dp/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto blob = scheme.Share(42);
  SQM_LOG(kInfo) << blob[0];
}
)cpp"}},
                                             /*with_flow=*/false);
  const auto findings = sqmlint::RunChecks(project);
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
}

// ------------------------------------------------------------- dp-spend-coverage

TEST(DpSpendCoverage, FiresOnUncoveredDrawBelowDriver) {
  // The draw hides one call below the SQM driver and no accountant spend
  // dominates it anywhere on the path.
  const auto findings = Lint("src/core/sqm.cc", R"cpp(
int64_t AddNoise(Rng& rng, double mu) {
  return Sample(rng, mu);
}
Result<SqmReport> SqmEvaluator::Evaluate(const Query& q) {
  int64_t noisy = AddNoise(rng_, 1.0);
  return Ok(noisy);
}
)cpp");
  EXPECT_EQ(Active(findings, "dp-spend-coverage"), 1);
}

TEST(DpSpendCoverage, SqmPlanRunIsARoot) {
  // The one release executor is a root in its own right, so a draw below
  // it is checked even when no driver in the scan calls it.
  const auto findings = Lint("src/core/sqm_plan.cc", R"cpp(
int64_t AddNoise(Rng& rng, double mu) {
  return Sample(rng, mu);
}
Result<SqmReport> SqmPlan::Run(const Inputs& inputs) const {
  int64_t noisy = AddNoise(rng_, 1.0);
  return Ok(noisy);
}
)cpp");
  EXPECT_EQ(Active(findings, "dp-spend-coverage"), 1);
}

TEST(DpSpendCoverage, SpendOnThePathCoversTheDraw) {
  const auto findings = Lint("src/core/sqm.cc", R"cpp(
int64_t AddNoise(Rng& rng, double mu) {
  return Sample(rng, mu);
}
Result<SqmReport> SqmEvaluator::Evaluate(const Query& q) {
  accountant_.AddSkellam(1.0, 16.0);
  int64_t noisy = AddNoise(rng_, 1.0);
  return Ok(noisy);
}
)cpp");
  EXPECT_EQ(Active(findings, "dp-spend-coverage"), 0);
}

TEST(DpSpendCoverage, DrawNotReachableFromDriverIsOutOfScope) {
  const auto findings = Lint("src/vfl/x.cc", R"cpp(
int64_t Jitter(Rng& rng) {
  return Sample(rng, 0.5);
}
)cpp");
  EXPECT_EQ(Active(findings, "dp-spend-coverage"), 0);
}

TEST(DpSpendCoverage, DeclassifySilencesWithJustification) {
  const auto findings = Lint("src/core/sqm.cc", R"cpp(
Result<SqmReport> SqmEvaluator::Evaluate(const Query& q) {
  int64_t seed = Sample(rng_, 1.0);  // sqmlint:declassify(seed derivation, not a DP noise draw)
  return Ok(seed);
}
)cpp");
  EXPECT_EQ(Active(findings, "dp-spend-coverage"), 0);
  EXPECT_EQ(Count(findings, "dp-spend-coverage", true), 1);
}

// ----------------------------------------------------------------- secret-branch

TEST(SecretBranch, FiresOnSecretSteeredIfInMpc) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto v = scheme.Share(7);
  if (v[0] > 10) {
    Handle();
  }
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-branch"), 1);
}

TEST(SecretBranch, FiresOnSecretLoopBound) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto v = scheme.Share(7);
  for (uint64_t i = 0; i < v[0]; ++i) {
    Step();
  }
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-branch"), 1);
}

TEST(SecretBranch, FiresOnSecretArrayIndex) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(ShamirScheme& scheme, const std::vector<int>& table) {
  auto v = scheme.Share(7);
  int picked = table[v[0]];
  (void)picked;
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-branch"), 1);
}

TEST(SecretBranch, ConstantTimeHelperIsTheApprovedRoute) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto v = scheme.Share(7);
  uint64_t picked = CtSelect(CtLess(v[0], 10), v[0], 0);
  (void)picked;
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-branch"), 0);
}

TEST(SecretBranch, PublicSizeOfSecretContainerMaySteer) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto v = scheme.Share(7);
  for (size_t i = 0; i < v.size(); ++i) {
    Step(i);
  }
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-branch"), 0);
}

TEST(SecretBranch, OutsideMpcIsOutOfScope) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto v = scheme.Share(7);
  if (v[0] > 10) {
    Handle();
  }
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-branch"), 0);
}

TEST(SecretBranch, ConditionalReductionPatternRegression) {
  // Regression fixture for the src/mpc/field.cc fix: the scalar reduction
  // used to branch on the (secret) element — `if (r >= p) r -= p` — which
  // this check now flags; the committed mask-based form stays silent.
  const auto branchy = Lint("src/mpc/x.cc", R"cpp(
uint64_t Reduce(ShamirScheme& scheme) {
  auto r = scheme.Share(1);
  if (r >= kModulus) r -= kModulus;
  return r;
}
)cpp");
  EXPECT_EQ(Active(branchy, "secret-branch"), 1);

  const auto branchless = Lint("src/mpc/x.cc", R"cpp(
uint64_t Reduce(ShamirScheme& scheme) {
  auto r = scheme.Share(1);
  r = r - (kModulus & -static_cast<uint64_t>(r >= kModulus));
  return r;
}
)cpp");
  EXPECT_EQ(Active(branchless, "secret-branch"), 0);
}

TEST(SecretBranch, DeclassifySilencesWithJustification) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto v = scheme.Share(7);
  if (v[0] > 10) {  // sqmlint:declassify(v is a reconstructed public output here)
    Handle();
  }
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-branch"), 0);
  EXPECT_EQ(Count(findings, "secret-branch", true), 1);
}

// -------------------------------------------------------------- baseline ratchet

constexpr char kOneFinding[] = R"cpp(
Status Flush(int fd);
void f(int fd) {
  Flush(fd);
}
)cpp";

TEST(Baseline, RoundTripMatchesItself) {
  const auto project = sqmlint::BuildProject({{"src/dp/x.cc", kOneFinding}});
  const auto findings = sqmlint::RunChecks(project);
  ASSERT_GT(sqmlint::CountActive(findings), 0u);
  const sqmlint::Baseline baseline =
      sqmlint::BaselineFromFindings(project, findings);
  const std::string text = sqmlint::RenderBaseline(baseline);
  sqmlint::Baseline parsed;
  std::string error;
  ASSERT_TRUE(sqmlint::ParseBaseline(text, &parsed, &error)) << error;
  const sqmlint::BaselineDelta delta =
      sqmlint::CompareBaseline(project, findings, parsed);
  EXPECT_TRUE(delta.Clean());
  EXPECT_EQ(delta.matched, sqmlint::CountActive(findings));
}

TEST(Baseline, InjectedRegressionComesBackFresh) {
  // The ratchet scenario check.sh relies on: a new finding not present in
  // the committed baseline must fail the comparison.
  const auto clean = sqmlint::BuildProject({{"src/dp/x.cc", "void f();\n"}});
  const sqmlint::Baseline baseline =
      sqmlint::BaselineFromFindings(clean, sqmlint::RunChecks(clean));
  EXPECT_TRUE(baseline.entries.empty());

  const auto regressed =
      sqmlint::BuildProject({{"src/dp/x.cc", kOneFinding}});
  const auto findings = sqmlint::RunChecks(regressed);
  const sqmlint::BaselineDelta delta =
      sqmlint::CompareBaseline(regressed, findings, baseline);
  EXPECT_FALSE(delta.Clean());
  EXPECT_EQ(delta.fresh.size(), sqmlint::CountActive(findings));
}

TEST(Baseline, StaleEntriesRefuseToLinger) {
  // A baselined finding that stops firing must be deleted from the
  // committed file: the baseline only shrinks.
  const auto project =
      sqmlint::BuildProject({{"src/dp/x.cc", "void f();\n"}});
  sqmlint::Baseline baseline;
  baseline.entries.push_back(
      {"unchecked-status", "src/dp/x.cc", "Flush(fd);"});
  const sqmlint::BaselineDelta delta = sqmlint::CompareBaseline(
      project, sqmlint::RunChecks(project), baseline);
  EXPECT_FALSE(delta.Clean());
  ASSERT_EQ(delta.stale.size(), 1u);
  EXPECT_EQ(delta.stale[0].check, "unchecked-status");
}

TEST(Baseline, FingerprintSurvivesLineChurn) {
  // Unrelated edits above the finding shift its line number; the
  // line-text fingerprint keeps matching so the baseline does not churn.
  const auto before = sqmlint::BuildProject({{"src/dp/x.cc", kOneFinding}});
  const sqmlint::Baseline baseline =
      sqmlint::BaselineFromFindings(before, sqmlint::RunChecks(before));
  const auto after = sqmlint::BuildProject(
      {{"src/dp/x.cc", std::string("// one new comment line\n\n") +
                           kOneFinding}});
  const sqmlint::BaselineDelta delta = sqmlint::CompareBaseline(
      after, sqmlint::RunChecks(after), baseline);
  EXPECT_TRUE(delta.Clean());
}

TEST(Baseline, ModuleRelativePathCutsAbsolutePrefix) {
  EXPECT_EQ(sqmlint::ModuleRelativePath("/home/u/repo/src/mpc/field.cc"),
            "src/mpc/field.cc");
  EXPECT_EQ(sqmlint::ModuleRelativePath("tests/sqm_test.cc"),
            "tests/sqm_test.cc");
  EXPECT_EQ(sqmlint::ModuleRelativePath("tools/sqmlint/main.cc"),
            "tools/sqmlint/main.cc");
}

TEST(Baseline, SuppressedFindingsAreNotBaselined) {
  const auto project = sqmlint::BuildProject({{"src/dp/x.cc", R"cpp(
Status Flush(int fd);
void f(int fd) {
  Flush(fd);  // sqmlint:allow(unchecked-status)
}
)cpp"}});
  const sqmlint::Baseline baseline =
      sqmlint::BaselineFromFindings(project, sqmlint::RunChecks(project));
  EXPECT_TRUE(baseline.entries.empty());
}

// ------------------------------------------------------- JSON / SARIF round-trip

TEST(Renderers, JsonRoundTripsThroughRepoParser) {
  const auto project = sqmlint::BuildProject({{"src/dp/x.cc", kOneFinding}});
  const auto findings = sqmlint::RunChecks(project);
  const auto parsed = sqm::ParseJson(sqmlint::RenderJson(project, findings));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sqm::JsonValue& doc = parsed.value();
  const sqm::JsonValue* list = doc.Find("findings");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->items.size(), findings.size());
  const sqm::JsonValue* check = list->items[0].Find("check");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->string_value, "unchecked-status");
  const sqm::JsonValue* summary = doc.Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Find("active")->uint_value, 1u);
}

TEST(Renderers, SarifRoundTripsThroughRepoParser) {
  const auto project = sqmlint::BuildProject({{"src/dp/x.cc", kOneFinding}});
  const auto findings = sqmlint::RunChecks(project);
  const auto parsed = sqm::ParseJson(sqmlint::RenderSarif(project, findings));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sqm::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.Find("version")->string_value, "2.1.0");
  const sqm::JsonValue* runs = doc.Find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->items.size(), 1u);
  const sqm::JsonValue& run = runs->items[0];
  const sqm::JsonValue* driver = run.Find("tool")->Find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->Find("name")->string_value, "sqmlint");
  // One rule per registered check.
  EXPECT_EQ(driver->Find("rules")->items.size(),
            sqmlint::AllChecks().size());
  const sqm::JsonValue* results = run.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items.size(), findings.size());
  const sqm::JsonValue& result = results->items[0];
  EXPECT_EQ(result.Find("ruleId")->string_value, "unchecked-status");
  const sqm::JsonValue* region = result.Find("locations")
                                     ->items[0]
                                     .Find("physicalLocation")
                                     ->Find("region");
  ASSERT_NE(region, nullptr);
  EXPECT_TRUE(region->Find("startLine")->is_integer);
}

TEST(Renderers, SarifMarksSuppressedFindings) {
  const auto project = sqmlint::BuildProject({{"src/dp/x.cc", R"cpp(
Status Flush(int fd);
void f(int fd) {
  Flush(fd);  // sqmlint:allow(unchecked-status)
}
)cpp"}});
  const auto findings = sqmlint::RunChecks(project);
  const auto parsed = sqm::ParseJson(sqmlint::RenderSarif(project, findings));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sqm::JsonValue* results =
      parsed.value().Find("runs")->items[0].Find("results");
  ASSERT_EQ(results->items.size(), 1u);
  const sqm::JsonValue* suppressions =
      results->items[0].Find("suppressions");
  ASSERT_NE(suppressions, nullptr);
  ASSERT_EQ(suppressions->items.size(), 1u);
  EXPECT_EQ(suppressions->items[0].Find("kind")->string_value, "inSource");
}

}  // namespace
