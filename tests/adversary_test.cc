// Adversarial conformance tests: every single-message wire tamper against
// BGW or the SQM pipeline must either surface as a descriptive error Status
// (kIntegrityViolation or a transport failure) or provably leave the opened
// release unchanged. The tamper policies run through the
// ByzantineInterceptor man-in-the-middle decorator on the Transport seam,
// so the protocol code under test is exactly the production code.

#include "testing/tamper.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/report_io.h"
#include "core/sqm.h"
#include "mpc/bgw.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/lockstep.h"
#include "testing/schedule_fuzz.h"
#include "testing/transcript.h"

namespace sqm {
namespace {

using testing::ByzantineInterceptor;
using testing::TamperPolicy;
using testing::TamperTarget;
using testing::Transcript;
using testing::TranscriptRecorder;

constexpr size_t kParties = 5;
constexpr size_t kThreshold = 2;

const std::vector<int64_t> kInputA = {3, -4, 5};
const std::vector<int64_t> kInputB = {-7, 2, 9};
// Element-wise product and its sum, what the probe releases.
const std::vector<int64_t> kExpected = {-21, -8, 45, 16};

/// The conformance probe (testing::ProductProbeCircuit), with
/// verify_sharings on: input sharing for two parties, a batched
/// multiplication, an inner product, and one open of both results — every
/// step checked.
Result<std::vector<int64_t>> RunCheckedProbe(
    MessageInterceptor* interceptor) {
  LockstepTransport network(kParties, 0.0, Field::kWireBytes);
  network.SetInterceptor(interceptor);
  BgwEngine engine(ShamirScheme(kParties, kThreshold), &network, 77);
  engine.set_verify_sharings(true);
  Result<std::vector<int64_t>> outputs = engine.Evaluate(
      testing::ProductProbeCircuit(kInputA.size()),
      testing::ProductProbeInputs(kParties, kInputA, kInputB));
  network.SetInterceptor(nullptr);
  return outputs;
}

/// Same probe with verification off, to document what a tamper does when
/// nobody checks.
std::vector<int64_t> RunUncheckedProbe(MessageInterceptor* interceptor) {
  LockstepTransport network(kParties, 0.0, Field::kWireBytes);
  network.SetInterceptor(interceptor);
  BgwEngine engine(ShamirScheme(kParties, kThreshold), &network, 77);
  std::vector<int64_t> outputs =
      engine
          .Evaluate(testing::ProductProbeCircuit(kInputA.size()),
                    testing::ProductProbeInputs(kParties, kInputA, kInputB))
          .ValueOrDie();
  network.SetInterceptor(nullptr);
  return outputs;
}

TEST(AdversaryTest, CleanCheckedProbeReleasesExpectedValues) {
  const auto result = RunCheckedProbe(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie(), kExpected);
}

TEST(AdversaryTest, AdditiveTamperOnInputIsDetected) {
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kAdditive;
  policy.target.phase = "input";
  policy.magnitude = 1;  // The smallest possible perturbation.
  ByzantineInterceptor byzantine({policy});
  const auto result = RunCheckedProbe(&byzantine);
  EXPECT_EQ(byzantine.total_applications(), 1u);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIntegrityViolation)
      << result.status().ToString();
}

TEST(AdversaryTest, AdditiveTamperSilentlyCorruptsWithoutVerification) {
  // The motivation for the conformance layer: the identical tamper against
  // the legacy unchecked path changes the release and nobody notices.
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kAdditive;
  policy.target.phase = "input";
  policy.magnitude = 1;
  ByzantineInterceptor byzantine({policy});
  const std::vector<int64_t> outputs = RunUncheckedProbe(&byzantine);
  EXPECT_EQ(byzantine.total_applications(), 1u);
  EXPECT_NE(outputs, kExpected);
}

TEST(AdversaryTest, BitFlipOnMulSubShareIsDetected) {
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kBitFlip;
  policy.target.phase = "mul";
  policy.bit = 13;
  ByzantineInterceptor byzantine({policy});
  const auto result = RunCheckedProbe(&byzantine);
  EXPECT_EQ(byzantine.total_applications(), 1u);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIntegrityViolation)
      << result.status().ToString();
}

TEST(AdversaryTest, HighBitFlipOutsideFieldRangeIsDetected) {
  // Flipping bit 62 yields a value above the modulus — not even a valid
  // residue. The checked paths must reject, not crash or wrap silently.
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kBitFlip;
  policy.target.phase = "open";
  policy.bit = 62;
  ByzantineInterceptor byzantine({policy});
  const auto result = RunCheckedProbe(&byzantine);
  EXPECT_EQ(byzantine.total_applications(), 1u);
  ASSERT_FALSE(result.ok());
}

TEST(AdversaryTest, WrongDegreeDealingIsDetected) {
  // Dealer 0 ships every recipient a share of p(x) + c*x^3 — a consistent
  // degree-3 polynomial, one degree above the threshold. Its own (local)
  // share still lies on p, so the five points fit no single degree-<=2
  // polynomial.
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kWrongDegree;
  policy.target.phase = "input";
  policy.target.from = 0;
  policy.degree = kThreshold + 1;
  policy.magnitude = 12345;
  policy.max_applications = TamperPolicy::kAnyCount;
  ByzantineInterceptor byzantine({policy});
  const auto result = RunCheckedProbe(&byzantine);
  EXPECT_EQ(byzantine.total_applications(), kParties - 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIntegrityViolation)
      << result.status().ToString();
}

TEST(AdversaryTest, EquivocationOnOpenIsDetected) {
  // Party 2 broadcasts recipient-dependent share vectors during the open.
  // Open collects every recipient's copy and must call it out.
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kEquivocate;
  policy.target.phase = "open";
  policy.target.from = 2;
  policy.magnitude = 99;
  policy.max_applications = TamperPolicy::kAnyCount;
  ByzantineInterceptor byzantine({policy});
  const auto result = RunCheckedProbe(&byzantine);
  EXPECT_GE(byzantine.total_applications(), kParties - 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIntegrityViolation)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("equivocation"),
            std::string::npos)
      << result.status().ToString();
}

TEST(AdversaryTest, TamperedTrailingShareIsDetectedByOpen) {
  // Party 4 broadcasts the same off-polynomial share to everyone, so no
  // copy disagrees. Interpolation uses only the first t+1 shares and never
  // sees it; the verified Open checks every survivor's share and must.
  LockstepTransport network(kParties, 0.0, Field::kWireBytes);
  BgwEngine engine(ShamirScheme(kParties, kThreshold), &network, 77);
  Circuit circuit;
  for (size_t i = 0; i < kInputA.size(); ++i) {
    circuit.MarkOutput(circuit.AddInput(0));
  }
  SharedVector a =
      engine.EvaluateToShares(circuit, testing::ProductProbeInputs(
                                           kParties, kInputA, {}))
          .ValueOrDie();
  a.shares(kParties - 1)[1] = Field::Add(a.shares(kParties - 1)[1], 1);
  EXPECT_EQ(engine.OpenOutputs(a).ValueOrDie(), kInputA);

  engine.set_verify_sharings(true);
  const auto result = engine.OpenOutputs(a);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIntegrityViolation)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("open, element 1"),
            std::string::npos)
      << result.status().ToString();
}

TEST(AdversaryTest, SwallowedMulMessageFailsFast) {
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kSwallow;
  policy.target.phase = "mul";
  ByzantineInterceptor byzantine({policy});
  const auto result = RunCheckedProbe(&byzantine);
  EXPECT_EQ(byzantine.total_applications(), 1u);
  ASSERT_FALSE(result.ok());  // Lockstep receive hard-fails, surfaced as
                              // a Status — never an abort.
}

TEST(AdversaryTest, SwallowedInputMessageFailsFast) {
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kSwallow;
  policy.target.phase = "input";
  ByzantineInterceptor byzantine({policy});
  const auto result = RunCheckedProbe(&byzantine);
  ASSERT_FALSE(result.ok());
}

TEST(AdversaryTest, ReplayedInputMessageIsDetectedDownstream) {
  // The duplicate sits at the head of its channel queue; the next phase's
  // receive on that channel dequeues the stale dealing instead of the
  // fresh sub-share, which the Mul-exit consistency check rejects.
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kReplay;
  policy.target.phase = "input";
  ByzantineInterceptor byzantine({policy});
  const auto result = RunCheckedProbe(&byzantine);
  EXPECT_EQ(byzantine.total_applications(), 1u);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIntegrityViolation)
      << result.status().ToString();
}

TEST(AdversaryTest, ReplayOnFinalOpenCannotChangeTheRelease) {
  // A duplicate of the last open broadcast is never consumed: the open
  // receives exactly one message per channel in FIFO order, so the original
  // is what every recipient reads. The release is provably unchanged.
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kReplay;
  policy.target.phase = "open";
  policy.skip_matches = (kParties - 1) * kParties - 1;  // Its last message.
  ByzantineInterceptor byzantine({policy});
  const auto result = RunCheckedProbe(&byzantine);
  EXPECT_EQ(byzantine.total_applications(), 1u);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie(), kExpected);
}

TEST(AdversaryTest, EverySinglePolicyDetectsOrLeavesReleaseUnchanged) {
  // The blanket conformance property: for every tamper kind against every
  // protocol phase, the checked probe either fails with a descriptive
  // Status or releases exactly the untampered values. No silent wrong
  // open, ever.
  const TamperPolicy::Kind kKinds[] = {
      TamperPolicy::Kind::kAdditive,    TamperPolicy::Kind::kBitFlip,
      TamperPolicy::Kind::kWrongDegree, TamperPolicy::Kind::kEquivocate,
      TamperPolicy::Kind::kReplay,      TamperPolicy::Kind::kSwallow,
  };
  const char* kPhases[] = {"input", "mul", "open"};
  for (TamperPolicy::Kind kind : kKinds) {
    for (const char* phase : kPhases) {
      for (size_t skip : {0u, 3u, 7u}) {
        TamperPolicy policy;
        policy.kind = kind;
        policy.target.phase = phase;
        policy.skip_matches = skip;
        policy.magnitude = 42;
        policy.bit = 17;
        policy.degree = kThreshold + 1;
        ByzantineInterceptor byzantine({policy});
        const auto result = RunCheckedProbe(&byzantine);
        if (result.ok()) {
          EXPECT_EQ(result.ValueOrDie(), kExpected)
              << testing::TamperKindToString(kind) << " on " << phase
              << " skip " << skip
              << ": tampered run released WRONG values without an error";
        } else {
          EXPECT_FALSE(result.status().message().empty());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SQM end-to-end under tampering.

SqmOptions BgwSqmOptions() {
  SqmOptions options;
  options.backend = MpcBackend::kBgw;
  options.mu = 0.0;
  options.gamma = 256.0;
  options.quantize_coefficients = false;
  options.seed = 7;
  return options;
}

Matrix TinyDatabase() {
  Matrix x(8, 3);
  Rng rng(21);
  for (auto& v : x.data()) v = rng.NextDouble() - 0.5;
  return x;
}

TEST(AdversaryTest, SqmEndToEndTamperIsDetected) {
  const Matrix x = TinyDatabase();
  const PolynomialVector f = PolynomialVector::OuterProduct(3);

  // Reference run: verification on, no adversary. Must release the same
  // values as the default pipeline.
  SqmOptions clean = BgwSqmOptions();
  const SqmReport baseline =
      SqmEvaluator(clean).Evaluate(f, x).ValueOrDie();
  clean.verify_sharings = true;
  const auto verified = SqmEvaluator(clean).Evaluate(f, x);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified.ValueOrDie().raw, baseline.raw);

  // Adversarial run: one perturbed multiplication sub-share somewhere in
  // the circuit evaluation. Must fail, not release.
  TamperPolicy policy;
  policy.kind = TamperPolicy::Kind::kAdditive;
  policy.target.phase = "mul";
  policy.skip_matches = 5;
  ByzantineInterceptor byzantine({policy});
  SqmOptions adversarial = BgwSqmOptions();
  adversarial.verify_sharings = true;
  adversarial.interceptor = &byzantine;
  const auto tampered = SqmEvaluator(adversarial).Evaluate(f, x);
  EXPECT_EQ(byzantine.total_applications(), 1u);
  ASSERT_FALSE(tampered.ok());
  EXPECT_EQ(tampered.status().code(), StatusCode::kIntegrityViolation)
      << tampered.status().ToString();
}

TEST(AdversaryTest, VerifySharingsUnderDegradeIsRefusedBeforeTraffic) {
  // The degrade quorum paths do not run the conformance checks, so a
  // tampered degrade run would release unchecked: asking for both is
  // refused at validation, before any message moves.
  const Matrix x = TinyDatabase();
  const PolynomialVector f = PolynomialVector::OuterProduct(3);
  TranscriptRecorder recorder;
  SqmOptions options = BgwSqmOptions();
  options.verify_sharings = true;
  options.dropout_policy = DropoutPolicy::kDegrade;
  options.interceptor = &recorder;
  const auto run = SqmEvaluator(options).Evaluate(f, x);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  const std::string message = run.status().ToString();
  EXPECT_NE(message.find("verify_sharings"), std::string::npos) << message;
  EXPECT_NE(message.find("degrade"), std::string::npos) << message;
  EXPECT_TRUE(recorder.transcript().entries.empty());
}

TEST(AdversaryTest, SqmTranscriptSupportsPrivacyVerification) {
  // Record a full SQM BGW run and check the transcript-privacy property: a
  // sub-threshold coalition's received messages are indistinguishable from
  // uniform field elements.
  const Matrix x = TinyDatabase();
  const PolynomialVector f = PolynomialVector::OuterProduct(3);
  SqmOptions options = BgwSqmOptions();
  TranscriptRecorder recorder;
  options.interceptor = &recorder;
  ASSERT_TRUE(SqmEvaluator(options).Evaluate(f, x).ok());
  const Transcript transcript = recorder.transcript();
  ASSERT_GT(transcript.entries.size(), 0u);
  const testing::TranscriptPrivacyVerifier verifier;
  // threshold = (3-1)/2 = 1: any single party is below threshold.
  const Status uniform = verifier.CheckCoalitionUniform(transcript, {2});
  EXPECT_TRUE(uniform.ok()) << uniform.ToString();
}

}  // namespace
}  // namespace sqm
