// Parameterized property sweeps across the core invariants:
//  - quantization is unbiased at every (value, gamma),
//  - BGW evaluates random circuits exactly for every (n, t),
//  - the RDP accountant curves are monotone where theory says they are,
//  - SQM's estimate converges to the exact polynomial sum as gamma grows.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/quantize.h"
#include "core/sqm.h"
#include "dp/gaussian.h"
#include "dp/rdp.h"
#include "dp/skellam.h"
#include "math/stats.h"
#include "mpc/bgw.h"
#include "net/lockstep.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

// ---------------------------------------------------------------- rounding

class RoundingUnbiasednessTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RoundingUnbiasednessTest, MeanEqualsScaledValue) {
  const auto [value, gamma] = GetParam();
  Rng rng(1234);
  constexpr int kDraws = 120000;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(StochasticRound(value, gamma, rng));
  }
  // Rounding residual is in [0,1): the mean estimator's 5-sigma band is
  // 5 * 0.5 / sqrt(draws) regardless of scale.
  EXPECT_NEAR(sum / kDraws, value * gamma, 5.0 * 0.5 / std::sqrt(kDraws));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundingUnbiasednessTest,
    ::testing::Combine(::testing::Values(-1.7, -0.011, 0.0, 0.3333, 0.999),
                       ::testing::Values(1.0, 7.0, 100.0, 1024.0)));

// ------------------------------------------------------------------- BGW

class BgwConfigTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(BgwConfigTest, RandomArithmeticCircuitEvaluatesExactly) {
  const auto [parties, threshold] = GetParam();
  LockstepTransport network(parties, 0.0);
  BgwEngine engine(ShamirScheme(parties, threshold), &network,
                   parties * 100 + threshold);

  // Random circuit over small integers, mirrored by plain evaluation.
  Rng rng(parties * 7 + threshold);
  Circuit c;
  std::vector<Circuit::WireId> wires;
  std::vector<int64_t> values;
  std::vector<std::vector<int64_t>> inputs(parties);
  for (size_t j = 0; j < parties; ++j) {
    for (int i = 0; i < 2; ++i) {
      const int64_t v = static_cast<int64_t>(rng.NextBounded(21)) - 10;
      wires.push_back(c.AddInput(j));
      values.push_back(v);
      inputs[j].push_back(v);
    }
  }
  for (int step = 0; step < 30; ++step) {
    const size_t a = rng.NextBounded(wires.size());
    const size_t b = rng.NextBounded(wires.size());
    switch (rng.NextBounded(4)) {
      case 0:
        wires.push_back(c.AddAdd(wires[a], wires[b]));
        values.push_back(values[a] + values[b]);
        break;
      case 1:
        wires.push_back(c.AddSub(wires[a], wires[b]));
        values.push_back(values[a] - values[b]);
        break;
      case 2: {
        const int64_t k = static_cast<int64_t>(rng.NextBounded(7)) - 3;
        wires.push_back(c.AddMulConst(wires[a], Field::Encode(k)));
        values.push_back(values[a] * k);
        break;
      }
      default:
        // Keep magnitudes bounded: only multiply if the product is small.
        if (std::llabs(values[a]) < (1LL << 25) &&
            std::llabs(values[b]) < (1LL << 25)) {
          wires.push_back(c.AddMul(wires[a], wires[b]));
          values.push_back(values[a] * values[b]);
        } else {
          wires.push_back(c.AddAdd(wires[a], wires[b]));
          values.push_back(values[a] + values[b]);
        }
    }
  }
  c.MarkOutput(wires.back());
  c.MarkOutput(wires[wires.size() / 2]);

  const auto out = engine.Evaluate(c, inputs).ValueOrDie();
  EXPECT_EQ(out[0], values.back());
  EXPECT_EQ(out[1], values[wires.size() / 2]);
}

INSTANTIATE_TEST_SUITE_P(Configs, BgwConfigTest,
                         ::testing::Values(std::make_tuple(3u, 1u),
                                           std::make_tuple(4u, 1u),
                                           std::make_tuple(5u, 2u),
                                           std::make_tuple(7u, 3u),
                                           std::make_tuple(9u, 4u)));

// ------------------------------------------------------------- accountant

class EpsilonMonotoneInMuTest : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonMonotoneInMuTest, SingleReleaseCurve) {
  const double d2 = GetParam();
  const double d1 = std::min(d2 * d2, 10.0 * d2);
  double prev = 1e100;
  for (double mu : {d2 * d2, 4 * d2 * d2, 16 * d2 * d2, 64 * d2 * d2}) {
    const double eps = SkellamEpsilonSingleRelease(mu, d1, d2, 1e-5);
    EXPECT_LT(eps, prev);
    prev = eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Sensitivities, EpsilonMonotoneInMuTest,
                         ::testing::Values(1.0, 10.0, 1000.0, 1e6));

TEST(AccountantConsistencyTest, SkellamNeverBeatsGaussianByMuch) {
  // Lemma 1's bound is the Gaussian term plus a positive correction, so at
  // matched variance the Skellam epsilon must be >= the Gaussian epsilon
  // and within a small factor for large mu.
  for (double d2 : {1.0, 50.0}) {
    const double mu = 1e6 * d2 * d2;
    const double sigma = std::sqrt(2.0 * mu);
    const double skellam =
        SkellamEpsilonSingleRelease(mu, d2 * d2, d2, 1e-5);
    const auto gauss_curve = [&](double alpha) {
      return GaussianRdp(alpha, d2, sigma);
    };
    const double gaussian =
        BestEpsilonFromCurve(gauss_curve, DefaultAlphaGrid(), 1e-5);
    EXPECT_GE(skellam, gaussian * (1.0 - 1e-9));
    EXPECT_LE(skellam, gaussian * 1.05);
  }
}

// ------------------------------------------------------------ convergence

class SqmConvergenceTest : public ::testing::TestWithParam<double> {};

TEST_P(SqmConvergenceTest, EstimateWithinTheoreticalEnvelope) {
  const double gamma = GetParam();
  Matrix x(20, 2);
  Rng gen(5);
  for (auto& v : x.data()) v = gen.NextDouble() - 0.5;
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial(1.0, {{0, 1}, {1, 1}}));
  f.AddDimension(p);

  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < x.rows(); ++i) rows.push_back(x.Row(i));
  const double exact = f.EvaluateSum(rows)[0];

  SqmOptions options;
  options.gamma = gamma;
  options.mu = 0.0;
  options.quantize_coefficients = false;
  const SqmReport report =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  // Lemma 2-style envelope: per-record error O(gamma^{lambda-1}) after
  // downscaling is O(m * c / gamma); use a generous constant.
  const double envelope = 20.0 * 4.0 / gamma;
  EXPECT_NEAR(report.estimate[0], exact, envelope) << "gamma=" << gamma;
}

INSTANTIATE_TEST_SUITE_P(Gammas, SqmConvergenceTest,
                         ::testing::Values(8.0, 32.0, 128.0, 512.0, 2048.0,
                                           8192.0));

}  // namespace
}  // namespace sqm
