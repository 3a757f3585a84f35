#include "dp/skellam.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/logging.h"
#include "dp/rdp.h"

namespace sqm {

double SkellamRdp(double alpha, double l1_sensitivity, double l2_sensitivity,
                  double mu) {
  SQM_CHECK(mu > 0.0);
  SQM_CHECK(alpha > 1.0);
  const double d1 = l1_sensitivity;
  const double d2sq = l2_sensitivity * l2_sensitivity;
  const double main_term = alpha * d2sq / (4.0 * mu);
  const double corr_a = ((2.0 * alpha - 1.0) * d2sq + 6.0 * d1) /
                        (16.0 * mu * mu);
  const double corr_b = 3.0 * d1 / (4.0 * mu);
  return main_term + std::min(corr_a, corr_b);
}

double SkellamRdpServer(double alpha, double l1_sensitivity,
                        double l2_sensitivity, double mu) {
  return SkellamRdp(alpha, l1_sensitivity, l2_sensitivity, mu);
}

double SkellamRdpClient(double alpha, double l1_sensitivity,
                        double l2_sensitivity, double mu, size_t num_clients) {
  SQM_CHECK(num_clients >= 2);
  const double n = static_cast<double>(num_clients);
  const double d2sq = l2_sensitivity * l2_sensitivity;
  // Lemma 4's closed form: doubled sensitivity (replace-one neighboring)
  // and noise reduced to (n-1)/n * mu because the client knows its share.
  return alpha * n * d2sq / ((n - 1.0) * mu) +
         3.0 * n * l1_sensitivity / (2.0 * (n - 1.0) * mu);
}

double SkellamEpsilonSingleRelease(double mu, double l1_sensitivity,
                                   double l2_sensitivity, double delta) {
  const auto tau_of_alpha = [&](double alpha) {
    return SkellamRdpServer(alpha, l1_sensitivity, l2_sensitivity, mu);
  };
  return BestEpsilonFromCurve(tau_of_alpha, DefaultAlphaGrid(), delta);
}

namespace {

// Lemma 7's subsampled curve at noise mu. Its base tau_l =
// l*delta2^2/(4mu) + 3*delta1/(4mu) is the Skellam bound at order l with
// the simple min-branch.
const SubsampledCurve& SkellamSteps(SubsampledCurve& curve, double l1,
                                    double l2, double mu) {
  return curve.SetBase([&](size_t l) {
    return SkellamRdp(static_cast<double>(l), l1, l2, mu);
  });
}

// misses(mu) is "epsilon(mu) > target"; epsilon falls in mu. Bracket, bisect.
Result<double> CalibrateMu(const std::function<bool(double)>& misses) {
  SQM_ASSIGN_OR_RETURN(const double hi,
                       GrowBracket(1.0, 4.0, 400, "mu", misses));
  return BisectDecreasing(1e-6, hi, 200, misses);
}

}  // namespace

double SkellamSubsampledEpsilon(double mu, double l1_sensitivity,
                                double l2_sensitivity, double q, size_t rounds,
                                double delta) {
  SubsampledCurve curve(q, rounds);
  return BestEpsilonFromCurve(
      std::cref(SkellamSteps(curve, l1_sensitivity, l2_sensitivity, mu)),
      DefaultAlphaGrid(), delta);
}

Result<double> CalibrateSkellamMuSingleRelease(double epsilon, double delta,
                                               double l1_sensitivity,
                                               double l2_sensitivity) {
  SQM_ASSIGN_OR_RETURN(
      const EpsilonTarget target,
      EpsilonTarget::Make("Skellam calibration", epsilon, delta));
  return CalibrateMu([&](double mu) {
    return target.MissedBy([&](double alpha) {
      return SkellamRdpServer(alpha, l1_sensitivity, l2_sensitivity, mu);
    });
  });
}

Result<double> CalibrateSkellamMuSubsampled(double epsilon, double delta,
                                            double l1_sensitivity,
                                            double l2_sensitivity, double q,
                                            size_t rounds) {
  if (rounds == 0) {
    return Status::InvalidArgument("rounds must be > 0");
  }
  SQM_ASSIGN_OR_RETURN(
      const EpsilonTarget target,
      EpsilonTarget::Make("Skellam calibration", epsilon, delta));
  SubsampledCurve curve(q, rounds);
  return CalibrateMu([&](double mu) {
    return target.MissedBy(
        std::cref(SkellamSteps(curve, l1_sensitivity, l2_sensitivity, mu)));
  });
}

}  // namespace sqm
