#include "core/sqm.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/sqm_plan.h"
#include "math/stats.h"
#include "poly/parser.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

Matrix SmallDatabase(size_t rows, size_t cols, uint64_t seed) {
  Matrix x(rows, cols);
  Rng rng(seed);
  for (auto& v : x.data()) v = rng.NextDouble() - 0.5;
  return x;
}

std::vector<double> ExactSum(const PolynomialVector& f, const Matrix& x) {
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < x.rows(); ++i) rows.push_back(x.Row(i));
  return f.EvaluateSum(rows);
}

TEST(SqmTest, NoiselessEstimateApproachesExactValue) {
  const Matrix x = SmallDatabase(40, 3, 1);
  const PolynomialVector f = PolynomialVector::OuterProduct(3);
  const std::vector<double> exact = ExactSum(f, x);

  SqmOptions options;
  options.mu = 0.0;
  options.gamma = 4096.0;
  options.quantize_coefficients = false;
  SqmEvaluator evaluator(options);
  const SqmReport report = evaluator.Evaluate(f, x).ValueOrDie();
  ASSERT_EQ(report.estimate.size(), exact.size());
  for (size_t t = 0; t < exact.size(); ++t) {
    EXPECT_NEAR(report.estimate[t], exact[t], 0.02) << "dim " << t;
  }
}

TEST(SqmTest, QuantizationErrorShrinksWithGamma) {
  const Matrix x = SmallDatabase(30, 2, 2);
  const PolynomialVector f = PolynomialVector::OuterProduct(2);
  const std::vector<double> exact = ExactSum(f, x);

  double prev_worst = 1e18;
  for (double gamma : {16.0, 128.0, 1024.0, 8192.0}) {
    SqmOptions options;
    options.mu = 0.0;
    options.gamma = gamma;
    options.quantize_coefficients = false;
    SqmEvaluator evaluator(options);
    const SqmReport report = evaluator.Evaluate(f, x).ValueOrDie();
    double worst = 0.0;
    for (size_t t = 0; t < exact.size(); ++t) {
      worst = std::max(worst, std::fabs(report.estimate[t] - exact[t]));
    }
    EXPECT_LE(worst, prev_worst * 1.5);  // Allow stochastic wiggle.
    prev_worst = worst;
  }
  EXPECT_LT(prev_worst, 5e-3);
}

TEST(SqmTest, CoefficientQuantizationHandlesMixedDegrees) {
  // f(x) = 0.5 x0 + 0.25 x0 x1 - 2: degrees 1, 2, 0 in one dimension.
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial::Power(0.5, 0, 1));
  p.AddTerm(Monomial(0.25, {{0, 1}, {1, 1}}));
  p.AddTerm(Monomial(-2.0));
  f.AddDimension(p);

  const Matrix x = SmallDatabase(25, 2, 3);
  const std::vector<double> exact = ExactSum(f, x);

  SqmOptions options;
  options.mu = 0.0;
  options.gamma = 2048.0;
  options.max_f_l2 = 3.0;
  SqmEvaluator evaluator(options);
  const SqmReport report = evaluator.Evaluate(f, x).ValueOrDie();
  EXPECT_NEAR(report.estimate[0], exact[0], 0.05);
}

TEST(SqmTest, PlanReservesTheExactCircuitSize) {
  // Degrees 3 (with a squared variable), 1 and 0, plus a pure square: every
  // branch of the gate count BuildCircuit reserves up front.
  const PolynomialVector f =
      ParsePolynomialVector("x0*x1^2 + 2*x2 - 3; x3^2").ValueOrDie();
  SqmOptions options;
  options.backend = MpcBackend::kBgw;
  options.mu = 4.0;
  options.gamma = 16.0;
  options.max_f_l2 = 4.0;
  const Matrix x = SmallDatabase(7, 4, 11);
  const SqmPlan plan = SqmPlan::Create(f, options, x.rows(), x.cols())
                           .ValueOrDie();
  const Circuit circuit = plan.BuildCircuit();
  EXPECT_EQ(circuit.gates().capacity(), circuit.gates().size());
  // Every client declares exactly the inputs the plan hands it.
  const SqmPlan::Inputs inputs = plan.PrepareInputs(x);
  for (size_t j = 0; j < plan.num_clients(); ++j) {
    EXPECT_EQ(circuit.NumInputsForParty(j),
              plan.CircuitInputs(inputs, j).size())
        << "client " << j;
  }
}

TEST(SqmTest, NoiseHasRequestedVariance) {
  // With a constant-zero data contribution the estimate is pure noise
  // Sk(mu) / gamma^lambda; check the variance across seeds.
  Matrix x(5, 2);  // All zeros.
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial(1.0, {{0, 1}, {1, 1}}));
  f.AddDimension(p);

  const double gamma = 32.0;
  const double mu = 400.0;
  std::vector<double> draws;
  for (uint64_t seed = 0; seed < 3000; ++seed) {
    SqmOptions options;
    options.mu = mu;
    options.gamma = gamma;
    options.seed = seed;
    options.quantize_coefficients = false;
    SqmEvaluator evaluator(options);
    const SqmReport report = evaluator.Evaluate(f, x).ValueOrDie();
    draws.push_back(report.estimate[0] * gamma * gamma);
  }
  EXPECT_NEAR(Mean(draws), 0.0, 5.0 * std::sqrt(2.0 * mu / 3000.0));
  EXPECT_NEAR(Variance(draws), 2.0 * mu, 0.1 * 2.0 * mu);
}

TEST(SqmTest, BgwBackendMatchesPlaintextExactly) {
  // Same seed => same quantization and noise; the MPC layer is exact, so
  // the two backends must agree bit-for-bit.
  const Matrix x = SmallDatabase(6, 4, 4);
  const PolynomialVector f = PolynomialVector::OuterProduct(4);

  SqmOptions options;
  options.mu = 25.0;
  options.gamma = 64.0;
  options.seed = 99;
  options.quantize_coefficients = false;

  options.backend = MpcBackend::kPlaintext;
  const SqmReport plain =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();

  options.backend = MpcBackend::kBgw;
  const SqmReport bgw = SqmEvaluator(options).Evaluate(f, x).ValueOrDie();

  EXPECT_EQ(plain.raw, bgw.raw);
  EXPECT_GT(bgw.transport.totals.messages, 0u);
  EXPECT_EQ(plain.transport.totals.messages, 0u);
}

TEST(SqmTest, BgwBackendWithCoefficientQuantization) {
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial::Power(0.5, 0, 1));
  p.AddTerm(Monomial(0.25, {{0, 1}, {1, 1}}));
  p.AddTerm(Monomial(-1.0, {{2, 1}, {0, 1}}));
  f.AddDimension(p);
  const Matrix x = SmallDatabase(5, 3, 5);

  SqmOptions options;
  options.mu = 10.0;
  options.gamma = 32.0;
  options.seed = 7;
  options.max_f_l2 = 2.0;

  options.backend = MpcBackend::kPlaintext;
  const SqmReport plain =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  options.backend = MpcBackend::kBgw;
  const SqmReport bgw = SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  EXPECT_EQ(plain.raw, bgw.raw);
}

TEST(SqmTest, FewerClientsThanColumnsSupported) {
  const Matrix x = SmallDatabase(6, 4, 6);
  const PolynomialVector f = PolynomialVector::OuterProduct(4);
  SqmOptions options;
  options.mu = 10.0;
  options.gamma = 64.0;
  options.num_clients = 2;
  options.quantize_coefficients = false;

  options.backend = MpcBackend::kPlaintext;
  const SqmReport plain =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  options.backend = MpcBackend::kBgw;
  // With 2 clients BGW needs threshold < 1, which Shamir validation
  // rejects — expect a clean error, not a crash.
  EXPECT_FALSE(SqmEvaluator(options).Evaluate(f, x).ok());

  options.num_clients = 3;
  const SqmReport bgw = SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  options.backend = MpcBackend::kPlaintext;
  const SqmReport plain3 =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  EXPECT_EQ(bgw.raw, plain3.raw);
  (void)plain;
}

TEST(SqmTest, InputValidation) {
  const Matrix x = SmallDatabase(5, 2, 7);
  const PolynomialVector f = PolynomialVector::OuterProduct(2);
  {
    SqmOptions options;
    options.gamma = 0.5;
    EXPECT_FALSE(SqmEvaluator(options).Evaluate(f, x).ok());
  }
  {
    SqmOptions options;
    options.mu = -1.0;
    EXPECT_FALSE(SqmEvaluator(options).Evaluate(f, x).ok());
  }
  {
    SqmOptions options;
    options.num_clients = 5;  // More clients than columns.
    EXPECT_FALSE(SqmEvaluator(options).Evaluate(f, x).ok());
  }
  {
    const PolynomialVector wide = PolynomialVector::OuterProduct(3);
    SqmOptions options;
    EXPECT_FALSE(SqmEvaluator(options).Evaluate(wide, x).ok());
  }
  {
    SqmOptions options;
    EXPECT_FALSE(
        SqmEvaluator(options).Evaluate(PolynomialVector(), x).ok());
  }
  {
    Matrix empty(0, 2);
    SqmOptions options;
    EXPECT_FALSE(SqmEvaluator(options).Evaluate(f, empty).ok());
  }
}

TEST(SqmTest, CapacityGuardTriggers) {
  const Matrix x = SmallDatabase(100, 2, 8);
  const PolynomialVector f = PolynomialVector::OuterProduct(2);
  SqmOptions options;
  options.gamma = 1e9;  // gamma^2 * m overflows 2^60.
  options.quantize_coefficients = false;
  const auto result = SqmEvaluator(options).Evaluate(f, x);
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(SqmTest, TimingFieldsArePopulated) {
  const Matrix x = SmallDatabase(20, 3, 9);
  const PolynomialVector f = PolynomialVector::OuterProduct(3);
  SqmOptions options;
  options.mu = 100.0;
  options.quantize_coefficients = false;
  const SqmReport report =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  EXPECT_GE(report.timing.quantize_seconds, 0.0);
  EXPECT_GE(report.timing.noise_sampling_seconds, 0.0);
  EXPECT_GT(report.timing.TotalSeconds(), 0.0);
}

TEST(SqmTest, SimulatedLatencyAccountedInBgw) {
  const Matrix x = SmallDatabase(4, 3, 10);
  const PolynomialVector f = PolynomialVector::OuterProduct(3);
  SqmOptions options;
  options.backend = MpcBackend::kBgw;
  options.network_latency_seconds = 0.1;
  options.quantize_coefficients = false;
  const SqmReport report =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  EXPECT_GT(report.timing.simulated_network_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.timing.simulated_network_seconds,
                   0.1 * static_cast<double>(report.transport.totals.rounds));
}

}  // namespace
}  // namespace sqm
