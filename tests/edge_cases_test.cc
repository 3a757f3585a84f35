// Boundary and failure-injection tests across modules: values at the edge
// of the representable ranges, degenerate shapes, and the SQM_CHECK-guarded
// preconditions (death tests — programmer errors must fail loudly, not
// corrupt a release).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/quantize.h"
#include "core/sqm.h"
#include "math/matrix.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/lockstep.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

// ----------------------------------------------------------------- field

TEST(FieldEdgeTest, CenteredBoundaryRoundTrips) {
  EXPECT_EQ(Field::Decode(Field::Encode(Field::kMaxCentered)),
            Field::kMaxCentered);
  EXPECT_EQ(Field::Decode(Field::Encode(-Field::kMaxCentered)),
            -Field::kMaxCentered);
  // kMaxCentered + (-kMaxCentered) = 0 survives the encoding.
  EXPECT_EQ(Field::Decode(Field::Add(Field::Encode(Field::kMaxCentered),
                                     Field::Encode(-Field::kMaxCentered))),
            0);
}

TEST(FieldEdgeDeathTest, EncodeRejectsOutOfRange) {
  EXPECT_DEATH(Field::Encode(Field::kMaxCentered + 1), "Check failed");
  EXPECT_DEATH(Field::Encode(std::numeric_limits<int64_t>::min()),
               "Check failed");
}

TEST(FieldEdgeDeathTest, InverseOfZeroAborts) {
  EXPECT_DEATH(Field::Inv(0), "Check failed");
}

// ---------------------------------------------------------------- shamir

TEST(ShamirEdgeTest, SecretAtFieldBoundary) {
  ShamirScheme scheme(5, 2);
  Rng rng(1);
  const Field::Element secret = Field::kModulus - 1;
  EXPECT_EQ(scheme.Reconstruct(scheme.Share(secret, rng)), secret);
}

TEST(ShamirEdgeDeathTest, InvalidParametersAbortConstruction) {
  EXPECT_DEATH(ShamirScheme(4, 2), "Check failed");  // 2t >= n.
  EXPECT_DEATH(ShamirScheme(1, 1), "Check failed");
}

// --------------------------------------------------------------- network

TEST(NetworkEdgeDeathTest, OutOfRangePartyAborts) {
  LockstepTransport net(2, 0.0);
  EXPECT_DEATH(net.Send(0, 5, {1}), "Check failed");
  EXPECT_DEATH(net.Send(7, 0, {1}), "Check failed");
}

TEST(NetworkEdgeTest, EmptyPayloadIsLegal) {
  LockstepTransport net(2, 0.0);
  net.Send(0, 1, {});
  EXPECT_EQ(net.Receive(0, 1).ValueOrDie().size(), 0u);
  EXPECT_EQ(net.stats().field_elements, 0u);
  EXPECT_EQ(net.stats().messages, 1u);
}

// ---------------------------------------------------------------- matrix

TEST(MatrixEdgeDeathTest, ShapeViolationsAbort) {
  Matrix a(2, 2);
  Matrix b(3, 2);
  EXPECT_DEATH(a += b, "Check failed");
  EXPECT_DEATH(a.Row(5), "Check failed");
  EXPECT_DEATH(a.SetCol(0, {1.0}), "Check failed");
}

TEST(MatrixEdgeTest, ZeroByZeroOperations) {
  Matrix empty;
  EXPECT_EQ(empty.Transpose().rows(), 0u);
  EXPECT_EQ((empty + empty).size(), 0u);
}

// -------------------------------------------------------------- quantize

TEST(QuantizeEdgeTest, HugeScaleStillExact) {
  Rng rng(2);
  // 2^40 * 0.5 = 2^39, exactly representable: deterministic.
  const double scale = std::pow(2.0, 40);
  EXPECT_EQ(StochasticRound(0.5, scale, rng), int64_t{1} << 39);
}

TEST(QuantizeEdgeTest, TinyValuesRoundToZeroOrOne) {
  Rng rng(3);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) {
    const int64_t r = StochasticRound(1e-4, 100.0, rng);  // 0.01 scaled.
    ASSERT_TRUE(r == 0 || r == 1);
    ones += static_cast<int>(r);
  }
  EXPECT_NEAR(ones / 10000.0, 0.01, 0.005);
}

TEST(QuantizeEdgeTest, NegativeExactMultiple) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(StochasticRound(-3.0, 8.0, rng), -24);
  }
}

// ------------------------------------------------------------------- sqm

TEST(SqmEdgeTest, SingleRecordDatabase) {
  Matrix x(1, 2);
  x(0, 0) = 0.5;
  x(0, 1) = -0.25;
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial(1.0, {{0, 1}, {1, 1}}));
  f.AddDimension(p);
  SqmOptions options;
  options.mu = 0.0;
  options.gamma = 1024.0;
  options.quantize_coefficients = false;
  const SqmReport report =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  EXPECT_NEAR(report.estimate[0], -0.125, 1e-3);
}

TEST(SqmEdgeTest, ConstantOnlyPolynomialViaCoefficients) {
  // f(x) = 3 (degree 0): the release is m * 3 regardless of data.
  Matrix x(7, 2);
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial(3.0));
  f.AddDimension(p);
  SqmOptions options;
  options.mu = 0.0;
  options.gamma = 64.0;
  options.max_f_l2 = 3.0;
  const SqmReport report =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  EXPECT_NEAR(report.estimate[0], 21.0, 0.05);
}

TEST(SqmEdgeTest, GammaExactlyOneIsCoarsestLegalQuantization) {
  Matrix x(50, 2);
  Rng gen(5);
  for (auto& v : x.data()) v = gen.NextDouble() - 0.5;
  const PolynomialVector f = PolynomialVector::OuterProduct(2);
  SqmOptions options;
  options.mu = 0.0;
  options.gamma = 1.0;
  options.quantize_coefficients = false;
  // Legal but very lossy; must run without error.
  EXPECT_TRUE(SqmEvaluator(options).Evaluate(f, x).ok());
}

TEST(SqmEdgeTest, UnevenColumnPartitioning) {
  // 5 columns over 3 clients: blocks of 2, 2, 1. BGW and plaintext must
  // agree (exercises SqmPlan::ColumnRange's remainder handling).
  Matrix x(4, 5);
  Rng gen(6);
  for (auto& v : x.data()) v = gen.NextDouble() - 0.5;
  const PolynomialVector f = PolynomialVector::OuterProduct(5);
  SqmOptions options;
  options.mu = 9.0;
  options.gamma = 32.0;
  options.num_clients = 3;
  options.quantize_coefficients = false;
  options.backend = MpcBackend::kPlaintext;
  const SqmReport plain =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  options.backend = MpcBackend::kBgw;
  const SqmReport bgw = SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  EXPECT_EQ(plain.raw, bgw.raw);
}

}  // namespace
}  // namespace sqm
