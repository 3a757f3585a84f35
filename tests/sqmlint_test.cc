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

// ------------------------------------------------------------------- secret-taint
// The secret rule: a secret-named parameter (share, mask, raw noise sample)
// of a non-harness function is taint-flow taint. Its sinks are taint-flow's;
// it steers no secret-branch finding.

constexpr char kLoggedShare[] = R"cpp(
void f(const std::vector<uint64_t>& noise_shares) {
  SQM_LOG(kInfo) << "first " << noise_shares[0];
}
)cpp";

TEST(SecretTaint, FiresOnShareReachingLogSink) {
  const auto findings = Lint("src/mpc/x.cc", kLoggedShare);
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(SecretTaint, SuppressionSilences) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(const std::vector<uint64_t>& noise_shares) {
  // sqmlint:allow(taint-flow)
  SQM_LOG(kInfo) << "first " << noise_shares[0];
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
  EXPECT_EQ(Count(findings, "taint-flow", true), 1);
}

TEST(SecretTaint, TestingBoundaryIsAllowlisted) {
  const auto findings = Lint("src/testing/x.cc", kLoggedShare);
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
}

TEST(SecretTaint, WordBoundariesAvoidSharedPtr) {
  // "shared" is not "share": lexicon matching is per identifier word.
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(const std::shared_ptr<int>& shared_state) {
  SQM_LOG(kInfo) << "ptr " << shared_state.use_count();
  SQM_LOG(kInfo) << "at " << shared_state.get();
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
}

TEST(SecretTaint, FiresOnObsArgumentSink) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(Span& span, uint64_t mask_value) {
  span.AddArg("m", mask_value);
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(SecretTaint, FiresOnSecretSpanAnnotation) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(Span& span, uint64_t share_count) {
  span.AddArg("n", share_count);
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
  EXPECT_EQ(Active(findings, "obs-discipline"), 0);
}

TEST(SecretTaint, FiresOnSecretNamedMember) {
  // No parameter carries it: the member's name alone is the secret.
  const auto findings = Lint("src/mpc/party_protocol.cc", R"cpp(
void PartyProtocol::Dump(size_t j) {
  SQM_LOG(kInfo) << "sub " << sub_shares_[j][0];
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(SecretTaint, FiresOnSecretNamedAccessorCall) {
  const auto findings = Lint("src/core/x.cc", R"cpp(
void Report(const ShamirSharing& sharing) {
  SQM_LOG(kInfo) << sharing.shares(0)[0];
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(SecretTaint, FiresOnSecretNamedLocalFromNonSource) {
  const auto findings = Lint("src/core/x.cc", R"cpp(
void f(Codec& codec) {
  auto mask = codec.Decode();
  SQM_LOG(kInfo) << mask;
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(SecretTaint, FiresOnSecretSpanDeclarationArgument) {
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
void f(int32_t share_track) {
  Span span("mpc.round", "mpc", share_track);
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
  EXPECT_EQ(Active(findings, "obs-discipline"), 0);
}

TEST(SecretTaint, SecretParamFlowsIntoCallee) {
  // The parameter seeds taint through the call graph: the callee's
  // innocently named `data` carries it to the log.
  const auto findings = LintFiles(
      {{"src/core/writer.cc", R"cpp(
void WriteOut(const std::vector<uint64_t>& data) {
  SQM_LOG(kInfo) << data[0];
}
)cpp"},
       {"src/core/caller.cc", R"cpp(
void Forward(const std::vector<uint64_t>& noise_shares) {
  WriteOut(noise_shares);
}
)cpp"}});
  ASSERT_EQ(Active(findings, "taint-flow"), 1);
  for (const Finding& f : findings) {
    if (f.check != "taint-flow") continue;
    EXPECT_EQ(f.path, "src/core/writer.cc");
    EXPECT_NE(f.message.find("'noise_shares'"), std::string::npos);
  }
}

TEST(SecretTaint, HarnessParamsDoNotSeed) {
  // A tests/ file's secret-named parameter neither hosts a sink nor
  // taints the src/ callee it calls.
  const auto findings = LintFiles(
      {{"src/core/writer.cc", R"cpp(
void WriteOut(const std::vector<uint64_t>& data) {
  SQM_LOG(kInfo) << data[0];
}
)cpp"},
       {"tests/x_test.cc", R"cpp(
void Exercise(const std::vector<uint64_t>& noise_shares) {
  SQM_LOG(kInfo) << noise_shares[0];
  WriteOut(noise_shares);
}
)cpp"}});
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
}

TEST(SecretTaint, SecretParamDoesNotSteerSecretBranch) {
  // Only source calls seed secret-branch: a lexicon-named parameter that
  // bounds a loop in src/mpc/ is public metadata more often than not.
  const auto findings = Lint("src/mpc/x.cc", R"cpp(
uint64_t f(const std::vector<uint64_t>& noise_shares, uint64_t share_count) {
  uint64_t acc = 0;
  for (uint64_t i = 0; i < share_count; ++i) acc += noise_shares[i];
  if (noise_shares[0] > 3) acc = 0;
  return acc;
}
)cpp");
  EXPECT_EQ(Active(findings, "secret-branch"), 0);
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
void f() {
  std::mt19937 gen(42);  // sqmlint:allow(field-capacity)
}
)cpp");
  EXPECT_EQ(Active(findings, "rng-discipline"), 1);
}

TEST(Suppression, DirectiveAboveOffendingLine) {
  const auto findings = Lint("src/dp/x.cc", R"cpp(
void f() {
  // sqmlint:allow(rng-discipline)
  std::mt19937 gen(42);
}
)cpp");
  EXPECT_EQ(Active(findings, "rng-discipline"), 0);
  EXPECT_EQ(Count(findings, "rng-discipline", true), 1);
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
  const auto project = sqmlint::BuildProject({{"src/dp/x.cc", kLoggedShare}});
  const auto findings = sqmlint::RunChecks(project);
  const std::string json = sqmlint::RenderJson(project, findings);
  EXPECT_NE(json.find("\"check\":\"taint-flow\""), std::string::npos);
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
  const auto findings = sqmlint::RunChecks(project, {"taint-flow"});
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
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
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
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
}

TEST(Lexer, LineContinuationInsideMacroDefinition) {
  // The continued body lexes on its own physical line, and the directive
  // does not swallow the function defined after it: the flow engine still
  // sees the source call in its body.
  const auto findings = Lint("src/mpc/x.cc",
                             "#define MAKE_ENGINE(seed) \\\n"
                             "  std::mt19937 engine(seed)\n"
                             "void f(ShamirScheme& scheme) {\n"
                             "  auto blob = scheme.Share(42);\n"
                             "  SQM_LOG(kInfo) << blob[0];\n"
                             "}\n");
  ASSERT_EQ(Active(findings, "rng-discipline"), 1);
  ASSERT_EQ(Active(findings, "taint-flow"), 1);
  for (const Finding& f : findings) {
    if (f.check == "rng-discipline") {
      EXPECT_EQ(f.line, 2);
    } else if (f.check == "taint-flow") {
      EXPECT_EQ(f.line, 5);
    }
  }
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
  SQM_LOG(kInfo)  // sqmlint:allow(taint-flow)
      << noise_shares[0];
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 0);
  EXPECT_EQ(Count(findings, "taint-flow", true), 1);
}

// -------------------------------------------------------------------- taint-flow

TEST(TaintFlow, FiresOnSourceReachingLogIntraprocedural) {
  // `blob` carries no secret-looking name; the flow engine tracks the
  // Share() return into the log statement.
  const auto findings = Lint("src/dp/x.cc", R"cpp(
void f(ShamirScheme& scheme) {
  auto blob = scheme.Share(42);
  SQM_LOG(kInfo) << "payload " << blob[0];
}
)cpp");
  EXPECT_EQ(Active(findings, "taint-flow"), 1);
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
  // identifier smells secret: only the symbol-graph propagation connects
  // the files.
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

// --------------------------------------------------------- JSON round-trip

TEST(Renderers, JsonRoundTripsThroughRepoParser) {
  const auto project = sqmlint::BuildProject({{"src/dp/x.cc", kLoggedShare}});
  const auto findings = sqmlint::RunChecks(project);
  const auto parsed = sqm::ParseJson(sqmlint::RenderJson(project, findings));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sqm::JsonValue& doc = parsed.value();
  const sqm::JsonValue* list = doc.Find("findings");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->items.size(), findings.size());
  const sqm::JsonValue* check = list->items[0].Find("check");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->string_value, "taint-flow");
  const sqm::JsonValue* summary = doc.Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Find("active")->uint_value, 1u);
}

}  // namespace
