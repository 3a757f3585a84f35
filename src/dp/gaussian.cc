#include "dp/gaussian.h"

#include <cmath>
#include <functional>

#include "core/logging.h"
#include "dp/rdp.h"

namespace sqm {

double GaussianRdp(double alpha, double l2_sensitivity, double sigma) {
  SQM_CHECK(sigma > 0.0);
  return alpha * l2_sensitivity * l2_sensitivity / (2.0 * sigma * sigma);
}

double StdNormalCdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double GaussianDelta(double epsilon, double l2_sensitivity, double sigma) {
  SQM_CHECK(sigma > 0.0 && l2_sensitivity > 0.0);
  const double r = l2_sensitivity / sigma;
  return StdNormalCdf(r / 2.0 - epsilon / r) -
         std::exp(epsilon) * StdNormalCdf(-r / 2.0 - epsilon / r);
}

Result<double> CalibrateGaussianSigma(double epsilon, double delta,
                                      double l2_sensitivity) {
  if (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument(
        "CalibrateGaussianSigma: need epsilon > 0 and delta in (0, 1)");
  }
  if (l2_sensitivity <= 0.0) {
    return Status::InvalidArgument(
        "CalibrateGaussianSigma: sensitivity must be positive");
  }
  // GaussianDelta is decreasing in sigma; bracket then bisect.
  const auto above = [&](double sigma) {
    return GaussianDelta(epsilon, l2_sensitivity, sigma) > delta;
  };
  SQM_ASSIGN_OR_RETURN(const double hi,
                       GrowBracket(l2_sensitivity, 2.0, 200, "sigma", above));
  return BisectDecreasing(1e-12 * l2_sensitivity, hi, 200, above);
}

namespace {

// DP-SGD's subsampled curve at noise multiplier z: Gaussian steps of unit
// sensitivity.
const SubsampledCurve& GaussianSteps(SubsampledCurve& curve, double z) {
  return curve.SetBase([z](size_t l) {
    return GaussianRdp(static_cast<double>(l), 1.0, z);
  });
}

}  // namespace

double DpSgdEpsilon(double noise_multiplier, double q, size_t rounds,
                    double delta) {
  SubsampledCurve curve(q, rounds);
  return BestEpsilonFromCurve(std::cref(GaussianSteps(curve, noise_multiplier)),
                              DefaultAlphaGrid(), delta);
}

Result<double> CalibrateDpSgdNoise(double epsilon, double delta, double q,
                                   size_t rounds) {
  SQM_ASSIGN_OR_RETURN(
      const EpsilonTarget target,
      EpsilonTarget::Make("CalibrateDpSgdNoise", epsilon, delta));
  if (rounds == 0) {
    return Status::InvalidArgument("CalibrateDpSgdNoise: rounds must be > 0");
  }
  SubsampledCurve curve(q, rounds);
  const auto misses = [&](double z) {
    return target.MissedBy(std::cref(GaussianSteps(curve, z)));
  };
  // Epsilon is decreasing in the noise multiplier; bracket then bisect.
  SQM_ASSIGN_OR_RETURN(
      const double hi, GrowBracket(1.0, 2.0, 100, "noise multiplier", misses));
  double lo = 1e-3;
  size_t guard = 0;
  while (BestEpsilonFromCurve(std::cref(GaussianSteps(curve, lo)),
                              DefaultAlphaGrid(), delta) < epsilon &&
         lo > 1e-9) {
    lo *= 0.5;
    if (++guard > 100) break;
  }
  return BisectDecreasing(lo, hi, 100, misses);
}

}  // namespace sqm
