#include "dp/skellam.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "dp/gaussian.h"

namespace sqm {
namespace {

TEST(SkellamDpTest, Lemma1BoundStructure) {
  // With huge mu, the min() picks the 1/mu^2 branch and the bound tends to
  // the Gaussian-equivalent main term alpha * d2^2 / (4 mu).
  const double alpha = 4.0;
  const double d1 = 10.0;
  const double d2 = 3.0;
  const double mu = 1e9;
  const double main_term = alpha * d2 * d2 / (4.0 * mu);
  EXPECT_NEAR(SkellamRdp(alpha, d1, d2, mu), main_term, main_term * 1e-3);
}

TEST(SkellamDpTest, SmallMuUsesLinearCorrection) {
  // For small mu the 3*d1/(4mu) branch is smaller than the quadratic one.
  const double alpha = 2.0;
  const double d1 = 1.0;
  const double d2 = 1.0;
  const double mu = 0.1;
  const double expected = alpha * d2 * d2 / (4.0 * mu) +
                          std::min(((2 * alpha - 1) * d2 * d2 + 6 * d1) /
                                       (16.0 * mu * mu),
                                   3.0 * d1 / (4.0 * mu));
  EXPECT_DOUBLE_EQ(SkellamRdp(alpha, d1, d2, mu), expected);
}

TEST(SkellamDpTest, RdpDecreasesInMu) {
  double prev = 1e18;
  for (double mu : {1.0, 10.0, 100.0, 1e4, 1e6}) {
    const double tau = SkellamRdp(2.0, 1.0, 1.0, mu);
    EXPECT_LT(tau, prev);
    prev = tau;
  }
}

TEST(SkellamDpTest, ServerBoundNearGaussianWithMatchingVariance) {
  // Skellam with variance 2*mu matches a Gaussian with sigma^2 = 2*mu up to
  // the vanishing correction term — the paper's "comparable
  // privacy-utility trade-off" claim (Lemma 1 discussion).
  const double d2 = 5.0;
  const double mu = 1e8;
  const double sigma = std::sqrt(2.0 * mu);
  for (double alpha : {2.0, 8.0, 32.0}) {
    const double skellam = SkellamRdpServer(alpha, d2 * d2, d2, mu);
    const double gaussian = GaussianRdp(alpha, d2, sigma);
    EXPECT_NEAR(skellam / gaussian, 1.0, 1e-2) << "alpha=" << alpha;
  }
}

TEST(SkellamDpTest, ClientBoundExceedsServerBound) {
  // Lemma 3/4: the client sees less noise and a doubled sensitivity.
  const double alpha = 4.0;
  const double d1 = 2.0;
  const double d2 = 1.5;
  const double mu = 100.0;
  for (size_t n : {2u, 10u, 100u}) {
    EXPECT_GT(SkellamRdpClient(alpha, d1, d2, mu, n),
              SkellamRdpServer(alpha, d1, d2, mu));
  }
}

TEST(SkellamDpTest, ClientBoundConvergesAsClientsGrow) {
  // The n/(n-1) factor tends to 1: more clients means each knows a smaller
  // noise fraction (Section V-C "On data partitioning").
  const double alpha = 4.0;
  const double tau_10 = SkellamRdpClient(alpha, 1.0, 1.0, 100.0, 10);
  const double tau_1000 = SkellamRdpClient(alpha, 1.0, 1.0, 100.0, 1000);
  EXPECT_GT(tau_10, tau_1000);
  const double limit = alpha * 1.0 / 100.0 + 3.0 * 1.0 / (2.0 * 100.0);
  EXPECT_NEAR(tau_1000, limit, limit * 2e-3);
}

TEST(SkellamDpTest, SingleReleaseCalibrationRoundTrips) {
  const double eps = 1.0;
  const double delta = 1e-5;
  const double d2 = 17.0;
  const double d1 = d2 * d2;
  const double mu =
      CalibrateSkellamMuSingleRelease(eps, delta, d1, d2).ValueOrDie();
  EXPECT_LE(SkellamEpsilonSingleRelease(mu, d1, d2, delta),
            eps * (1.0 + 1e-6));
  EXPECT_GT(SkellamEpsilonSingleRelease(mu * 0.9, d1, d2, delta), eps);
}

TEST(SkellamDpTest, CalibratedMuScalesQuadraticallyInSensitivity) {
  const double mu1 =
      CalibrateSkellamMuSingleRelease(1.0, 1e-5, 1.0, 1.0).ValueOrDie();
  const double mu10 =
      CalibrateSkellamMuSingleRelease(1.0, 1e-5, 100.0, 10.0).ValueOrDie();
  EXPECT_NEAR(mu10 / mu1, 100.0, 15.0);
}

TEST(SkellamDpTest, SubsampledEpsilonMonotonicInRounds) {
  const double mu = 1e4;
  const double e1 = SkellamSubsampledEpsilon(mu, 4.0, 2.0, 0.01, 10, 1e-5);
  const double e2 = SkellamSubsampledEpsilon(mu, 4.0, 2.0, 0.01, 100, 1e-5);
  EXPECT_LT(e1, e2);
}

TEST(SkellamDpTest, SubsampledCalibrationRoundTrips) {
  const double eps = 2.0;
  const double delta = 1e-5;
  const double d2 = 50.0;
  const double d1 = 500.0;
  const double q = 0.01;
  const size_t rounds = 30;
  const double mu =
      CalibrateSkellamMuSubsampled(eps, delta, d1, d2, q, rounds)
          .ValueOrDie();
  EXPECT_LE(SkellamSubsampledEpsilon(mu, d1, d2, q, rounds, delta),
            eps * (1.0 + 1e-6));
  EXPECT_GT(SkellamSubsampledEpsilon(mu * 0.9, d1, d2, q, rounds, delta),
            eps);
}

TEST(SkellamDpTest, CalibrationRejectsBadArguments) {
  EXPECT_FALSE(CalibrateSkellamMuSingleRelease(-1.0, 1e-5, 1.0, 1.0).ok());
  EXPECT_FALSE(CalibrateSkellamMuSingleRelease(1.0, 0.0, 1.0, 1.0).ok());
  EXPECT_FALSE(
      CalibrateSkellamMuSubsampled(1.0, 1e-5, 1.0, 1.0, 0.01, 0).ok());
}

TEST(SkellamDpTest, HugeSensitivitiesStayFinite) {
  // The LR accounting feeds quantized sensitivities around gamma^3 ~ 1e11;
  // every path must stay finite.
  const double d2 = 1e11;
  const double d1 = std::sqrt(800.0) * d2;
  const double mu =
      CalibrateSkellamMuSubsampled(1.0, 1e-5, d1, d2, 0.001, 25)
          .ValueOrDie();
  EXPECT_TRUE(std::isfinite(mu));
  EXPECT_GT(mu, 0.0);
}

TEST(SkellamDpTest, SubsampledAccountingSurvivesVanishingRdp) {
  // Once tau_l rounds to 0 the subsampled log-sum-exp lands a hair below
  // zero; RDP is never negative, so epsilon sits at the grid's floor.
  const double eps = SkellamSubsampledEpsilon(1e15, 10.0, 3.0, 0.01, 10, 1e-5);
  EXPECT_NEAR(eps, 0.0446, 1e-4);
}

TEST(SkellamDpTest, UnreachableTargetsReturnInvalidArgumentNamingTheFloor) {
  // Orders up to 128 cannot convert any RDP curve below ~0.0446 at 1e-5.
  for (const Result<double>& mu :
       {CalibrateSkellamMuSubsampled(0.01, 1e-5, 10.0, 3.0, 0.01, 10),
        CalibrateSkellamMuSingleRelease(0.01, 1e-5, 10.0, 3.0)}) {
    ASSERT_FALSE(mu.ok());
    EXPECT_EQ(mu.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(mu.status().message().find("0.0446"), std::string::npos)
        << mu.status().ToString();
  }
  // Just above the floor is reachable.
  EXPECT_TRUE(CalibrateSkellamMuSingleRelease(0.05, 1e-5, 10.0, 3.0).ok());
  // A small delta prints in full, not rounded to six decimals.
  const Result<double> tiny_delta =
      CalibrateSkellamMuSingleRelease(0.1, 1e-9, 1.0, 1.0);
  ASSERT_FALSE(tiny_delta.ok());
  EXPECT_EQ(tiny_delta.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tiny_delta.status().message().find("1e-09"), std::string::npos)
      << tiny_delta.status().ToString();
  EXPECT_EQ(tiny_delta.status().message().find("0.000000"), std::string::npos)
      << tiny_delta.status().ToString();
}

TEST(SkellamDpTest, SubsampledEpsilonRisesInSampleRate) {
  const double d1 = 10.0;
  const double d2 = 3.0;
  const double e1 = SkellamSubsampledEpsilon(100.0, d1, d2, 0.001, 10, 1e-5);
  const double e2 = SkellamSubsampledEpsilon(100.0, d1, d2, 0.01, 10, 1e-5);
  const double e3 = SkellamSubsampledEpsilon(100.0, d1, d2, 0.1, 10, 1e-5);
  EXPECT_NEAR(e1, 0.0446, 1e-3);
  EXPECT_NEAR(e2, 0.0478, 1e-3);
  EXPECT_NEAR(e3, 0.282, 1e-3);
  EXPECT_LT(e1, e2);
  EXPECT_LT(e2, e3);
  for (const double mu : {10.0, 1e3, 1e5}) {
    double previous = 0.0;
    for (const double q : {1e-3, 1e-2, 0.1, 0.5, 1.0}) {
      const double eps = SkellamSubsampledEpsilon(mu, d1, d2, q, 10, 1e-5);
      EXPECT_LE(previous, eps) << "mu " << mu << " q " << q;
      previous = eps;
    }
  }
}

TEST(SkellamDpTest, SubsampledEpsilonFallsInMuAndRisesInRounds) {
  for (const double q : {0.01, 0.1}) {
    double previous = std::numeric_limits<double>::infinity();
    for (const double mu : {10.0, 100.0, 1e3, 1e4}) {
      const double eps = SkellamSubsampledEpsilon(mu, 10.0, 3.0, q, 10, 1e-5);
      EXPECT_LT(eps, previous) << "q " << q << " mu " << mu;
      previous = eps;
    }
    previous = 0.0;
    for (const size_t rounds : {1, 10, 100}) {
      const double eps =
          SkellamSubsampledEpsilon(100.0, 10.0, 3.0, q, rounds, 1e-5);
      EXPECT_GT(eps, previous) << "q " << q << " rounds " << rounds;
      previous = eps;
    }
  }
}

TEST(SkellamDpTest, CalibratorsReturnTheSmallestSufficientMu) {
  // eps(mu*) <= target < eps(mu* (1 - 1e-9)): bisection to double
  // precision, on a grid of targets, sensitivities and sample rates.
  constexpr double kDelta = 1e-5;
  constexpr double kBelow = 1.0 - 1e-9;
  const std::pair<double, double> sensitivities[] = {{10.0, 3.0},
                                                      {500.0, 50.0}};
  for (const double target : {0.1, 1.0, 4.0}) {
    for (const auto& [d1, d2] : sensitivities) {
      SCOPED_TRACE("target " + std::to_string(target) + " d2 " +
                   std::to_string(d2));
      const double mu =
          CalibrateSkellamMuSingleRelease(target, kDelta, d1, d2)
              .ValueOrDie();
      EXPECT_LE(SkellamEpsilonSingleRelease(mu, d1, d2, kDelta), target);
      EXPECT_GT(SkellamEpsilonSingleRelease(mu * kBelow, d1, d2, kDelta),
                target);
      for (const double q : {0.01, 0.1}) {
        const double sub_mu =
            CalibrateSkellamMuSubsampled(target, kDelta, d1, d2, q, 10)
                .ValueOrDie();
        EXPECT_LE(SkellamSubsampledEpsilon(sub_mu, d1, d2, q, 10, kDelta),
                  target)
            << "q " << q;
        EXPECT_GT(
            SkellamSubsampledEpsilon(sub_mu * kBelow, d1, d2, q, 10, kDelta),
            target)
            << "q " << q;
      }
    }
  }
}

}  // namespace
}  // namespace sqm
