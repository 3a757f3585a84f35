#include "dp/gaussian.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace sqm {
namespace {

TEST(GaussianDpTest, RdpClosedForm) {
  EXPECT_DOUBLE_EQ(GaussianRdp(2.0, 1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(GaussianRdp(4.0, 2.0, 2.0), 2.0);
}

TEST(GaussianDpTest, StdNormalCdfKnownValues) {
  EXPECT_NEAR(StdNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StdNormalCdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(StdNormalCdf(-1.959963984540054), 0.025, 1e-9);
}

TEST(GaussianDpTest, DeltaDecreasesInSigma) {
  double prev = 1.0;
  for (double sigma : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double delta = GaussianDelta(1.0, 1.0, sigma);
    EXPECT_LT(delta, prev);
    prev = delta;
  }
}

TEST(GaussianDpTest, CalibratedSigmaIsTight) {
  for (double eps : {0.25, 1.0, 4.0}) {
    for (double delta : {1e-5, 1e-7}) {
      const double sigma =
          CalibrateGaussianSigma(eps, delta, 1.0).ValueOrDie();
      // At the calibrated sigma the exact delta matches the target...
      EXPECT_LE(GaussianDelta(eps, 1.0, sigma), delta * (1.0 + 1e-6));
      // ...and 1% less noise violates it (tightness).
      EXPECT_GT(GaussianDelta(eps, 1.0, sigma * 0.99), delta);
    }
  }
}

TEST(GaussianDpTest, CalibratedSigmaScalesWithSensitivity) {
  const double s1 = CalibrateGaussianSigma(1.0, 1e-5, 1.0).ValueOrDie();
  const double s2 = CalibrateGaussianSigma(1.0, 1e-5, 2.0).ValueOrDie();
  EXPECT_NEAR(s2 / s1, 2.0, 1e-6);
}

TEST(GaussianDpTest, ClassicBoundIsLooserThanAnalytic) {
  // The classic sigma = sqrt(2 ln(1.25/delta)) * Delta / eps bound is valid
  // but conservative; analytic calibration must not exceed it (eps <= 1).
  const double eps = 0.5;
  const double delta = 1e-5;
  const double classic = std::sqrt(2.0 * std::log(1.25 / delta)) / eps;
  const double analytic =
      CalibrateGaussianSigma(eps, delta, 1.0).ValueOrDie();
  EXPECT_LT(analytic, classic);
}

TEST(GaussianDpTest, CalibrationRejectsBadArguments) {
  EXPECT_FALSE(CalibrateGaussianSigma(0.0, 1e-5, 1.0).ok());
  EXPECT_FALSE(CalibrateGaussianSigma(1.0, 0.0, 1.0).ok());
  EXPECT_FALSE(CalibrateGaussianSigma(1.0, 1.5, 1.0).ok());
  EXPECT_FALSE(CalibrateGaussianSigma(1.0, 1e-5, -1.0).ok());
}

TEST(GaussianDpTest, DpSgdEpsilonDecreasesInNoise) {
  double prev = 1e9;
  for (double z : {0.5, 1.0, 2.0, 4.0}) {
    const double eps = DpSgdEpsilon(z, 0.01, 100, 1e-5);
    EXPECT_LT(eps, prev);
    prev = eps;
  }
}

TEST(GaussianDpTest, DpSgdEpsilonIncreasesInRounds) {
  const double e10 = DpSgdEpsilon(1.0, 0.01, 10, 1e-5);
  const double e100 = DpSgdEpsilon(1.0, 0.01, 100, 1e-5);
  EXPECT_LT(e10, e100);
}

TEST(GaussianDpTest, DpSgdCalibrationRoundTrips) {
  const double target_eps = 2.0;
  const double z =
      CalibrateDpSgdNoise(target_eps, 1e-5, 0.01, 50).ValueOrDie();
  const double achieved = DpSgdEpsilon(z, 0.01, 50, 1e-5);
  EXPECT_LE(achieved, target_eps * (1.0 + 1e-6));
  EXPECT_GT(DpSgdEpsilon(z * 0.95, 0.01, 50, 1e-5), target_eps);
}

TEST(GaussianDpTest, DpSgdTargetsBelowTheFloorReturnInvalidArgument) {
  // Orders up to 128 cannot convert any RDP curve below ~0.0446 at 1e-5,
  // however much noise the steps carry.
  for (double target_eps : {0.01, 0.04}) {
    const Result<double> z = CalibrateDpSgdNoise(target_eps, 1e-5, 0.01, 10);
    ASSERT_FALSE(z.ok());
    EXPECT_EQ(z.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(z.status().message().find("0.0446"), std::string::npos)
        << z.status().ToString();
  }
  // Just above the floor is reachable.
  EXPECT_TRUE(CalibrateDpSgdNoise(0.05, 1e-5, 0.01, 10).ok());
}

TEST(GaussianDpTest, SubsamplingBeatsFullBatch) {
  // At equal noise, sampling 1% of records per round must cost far less
  // epsilon than full-batch rounds.
  const double sub = DpSgdEpsilon(1.0, 0.01, 100, 1e-5);
  const double full = DpSgdEpsilon(1.0, 1.0, 100, 1e-5);
  EXPECT_LT(sub, full / 5.0);
}

}  // namespace
}  // namespace sqm
