// Second property-sweep suite, covering the extension modules: the
// polynomial parser, GRR multiplication, the structured secure ops, and
// the privacy accountant.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <tuple>

#include "dp/accountant.h"
#include "dp/gaussian.h"
#include "mpc/ops.h"
#include "mpc/protocol.h"
#include "net/lockstep.h"
#include "poly/parser.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

// ------------------------------------------------------------ parser

class ParserRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRoundTripTest, RandomPolynomialSurvivesFormatParse) {
  Rng rng(GetParam());
  // Build a random polynomial, render it, re-parse it, compare on probes.
  Polynomial original;
  const size_t terms = 1 + rng.NextBounded(5);
  for (size_t t = 0; t < terms; ++t) {
    const double coefficient =
        (rng.NextDouble() - 0.5) * 4.0;
    std::vector<std::pair<size_t, uint32_t>> exponents;
    const size_t vars = rng.NextBounded(3);
    for (size_t v = 0; v < vars; ++v) {
      exponents.emplace_back(rng.NextBounded(4),
                             1 + static_cast<uint32_t>(rng.NextBounded(3)));
    }
    original.AddTerm(Monomial(coefficient, std::move(exponents)));
  }

  const std::string text = FormatPolynomial(original);
  const auto reparsed = ParsePolynomial(text);
  ASSERT_TRUE(reparsed.ok()) << text << " -> "
                             << reparsed.status().ToString();
  for (int probe = 0; probe < 5; ++probe) {
    std::vector<double> x(4);
    for (auto& xi : x) xi = rng.NextDouble() * 2.0 - 1.0;
    const double a = original.Evaluate(x);
    const double b = reparsed.ValueOrDie().Evaluate(x);
    EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::fabs(a))) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRoundTripTest,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

// ------------------------------------------------------------ mul

class GrrMulPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(GrrMulPropertyTest, RandomVectorsMultiplyExactly) {
  const auto [parties, threshold] = GetParam();
  LockstepTransport network(parties, 0.0);
  BgwProtocol protocol(ShamirScheme(parties, threshold), &network,
                       parties * 13 + threshold);

  Rng rng(parties + threshold);
  std::vector<int64_t> xs(8), ys(8), expected(8);
  for (size_t i = 0; i < 8; ++i) {
    xs[i] = static_cast<int64_t>(rng.NextBounded(1u << 20)) - (1 << 19);
    ys[i] = static_cast<int64_t>(rng.NextBounded(1u << 20)) - (1 << 19);
    expected[i] = xs[i] * ys[i];
  }
  const SharedVector x =
      protocol.ShareFromParty(0, Field::EncodeVector(xs)).ValueOrDie();
  const SharedVector y =
      protocol.ShareFromParty(1 % parties, Field::EncodeVector(ys))
          .ValueOrDie();

  const SharedVector product = protocol.Mul(x, y).ValueOrDie();
  EXPECT_EQ(protocol.OpenSigned(product).ValueOrDie(), expected);
}

INSTANTIATE_TEST_SUITE_P(Configs, GrrMulPropertyTest,
                         ::testing::Values(std::make_tuple(3u, 1u),
                                           std::make_tuple(5u, 2u),
                                           std::make_tuple(7u, 3u),
                                           std::make_tuple(9u, 2u)));

// ------------------------------------------------------------ ops

class OpsCovariancePropertyTest : public ::testing::TestWithParam<size_t> {
};

TEST_P(OpsCovariancePropertyTest, MatchesPlaintextOnRandomColumns) {
  const size_t n = GetParam();  // Clients = attributes.
  const size_t m = 9;
  LockstepTransport network(n, 0.0);
  BgwProtocol protocol(ShamirScheme(n, (n - 1) / 2), &network, n * 7);
  SecureOps ops(&protocol);

  Rng rng(n);
  std::vector<std::vector<int64_t>> columns(n, std::vector<int64_t>(m));
  for (auto& col : columns) {
    for (auto& v : col) {
      v = static_cast<int64_t>(rng.NextBounded(201)) - 100;
    }
  }
  const size_t d = n * (n + 1) / 2;
  std::vector<std::vector<int64_t>> noise(n, std::vector<int64_t>(d));
  std::vector<int64_t> noise_sum(d, 0);
  for (auto& client_noise : noise) {
    for (size_t t = 0; t < d; ++t) {
      client_noise[t] = static_cast<int64_t>(rng.NextBounded(11)) - 5;
      noise_sum[t] += client_noise[t];
    }
  }

  const std::vector<int64_t> release =
      ops.NoisyCovarianceUpper(columns, noise).ValueOrDie();
  size_t pair = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j, ++pair) {
      int64_t expected = noise_sum[pair];
      for (size_t r = 0; r < m; ++r) {
        expected += columns[i][r] * columns[j][r];
      }
      EXPECT_EQ(release[pair], expected) << "pair " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, OpsCovariancePropertyTest,
                         ::testing::Values(3, 5, 8));

// ------------------------------------------------------- accountant

class AccountantMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(AccountantMonotoneTest, EpsilonGrowsWithEventCount) {
  const double sigma = GetParam();
  double prev = 0.0;
  for (size_t count : {1u, 2u, 4u, 16u, 64u}) {
    PrivacyAccountant accountant;
    accountant.AddGaussian("g", 1.0, sigma, 1.0, count);
    const double eps = accountant.TotalEpsilon(1e-5).ValueOrDie();
    EXPECT_GT(eps, prev);
    prev = eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, AccountantMonotoneTest,
                         ::testing::Values(2.0, 8.0, 32.0));

}  // namespace
}  // namespace sqm
