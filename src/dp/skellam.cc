#include "dp/skellam.h"

#include <algorithm>
#include <cmath>
#include <string>

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

double SkellamMuWithDropouts(double mu, size_t num_clients,
                             size_t num_dropped) {
  SQM_CHECK(num_clients >= 1);
  SQM_CHECK(num_dropped <= num_clients);
  const double n = static_cast<double>(num_clients);
  const double d = static_cast<double>(num_dropped);
  return (n - d) / n * mu;
}

double SkellamEpsilonWithDropouts(double mu, size_t num_clients,
                                  size_t num_dropped, double l1_sensitivity,
                                  double l2_sensitivity, double delta) {
  const double realized_mu =
      SkellamMuWithDropouts(mu, num_clients, num_dropped);
  SQM_CHECK(realized_mu > 0.0);
  return SkellamEpsilonSingleRelease(realized_mu, l1_sensitivity,
                                     l2_sensitivity, delta);
}

double SkellamSubsampledEpsilon(double mu, double l1_sensitivity,
                                double l2_sensitivity, double q, size_t rounds,
                                double delta) {
  const auto tau_of_alpha = [&](double alpha) {
    const auto base = [&](size_t l) {
      // Lemma 7's tau_l = l*delta2^2/(4mu) + 3*delta1/(4mu): the Skellam
      // bound at order l with the simple min-branch.
      return SkellamRdp(static_cast<double>(l), l1_sensitivity,
                        l2_sensitivity, mu);
    };
    const double per_round =
        SubsampledRdp(static_cast<size_t>(alpha), q, base);
    return static_cast<double>(rounds) * per_round;
  };
  return BestEpsilonFromCurve(tau_of_alpha, DefaultAlphaGrid(), delta);
}

namespace {

/// Shared bisection driver: epsilon(mu) must be decreasing in mu.
template <typename EpsilonFn>
Result<double> CalibrateMu(double epsilon, double delta,
                           const EpsilonFn& eps_of_mu) {
  if (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument(
        "Skellam calibration: need epsilon > 0 and delta in (0, 1)");
  }
  // Even infinite noise (tau = 0 at every order) converts to this epsilon
  // on the alpha grid; no mu reaches a target at or below it.
  const double floor = BestEpsilonFromCurve([](double) { return 0.0; },
                                            DefaultAlphaGrid(), delta);
  if (epsilon <= floor) {
    return Status::InvalidArgument(
        "Skellam calibration: epsilon " + std::to_string(epsilon) +
        " is unreachable; Renyi orders up to 128 give at least " +
        std::to_string(floor) + " at delta " + std::to_string(delta));
  }
  double lo = 1e-6;
  double hi = 1.0;
  size_t guard = 0;
  while (eps_of_mu(hi) > epsilon) {
    hi *= 4.0;
    if (++guard > 400) {
      return Status::Internal("mu bracket expansion failed");
    }
  }
  for (size_t iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (eps_of_mu(mid) > epsilon) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace

Result<double> CalibrateSkellamMuSingleRelease(double epsilon, double delta,
                                               double l1_sensitivity,
                                               double l2_sensitivity) {
  return CalibrateMu(epsilon, delta, [&](double mu) {
    return SkellamEpsilonSingleRelease(mu, l1_sensitivity, l2_sensitivity,
                                       delta);
  });
}

Result<double> CalibrateSkellamMuSubsampled(double epsilon, double delta,
                                            double l1_sensitivity,
                                            double l2_sensitivity, double q,
                                            size_t rounds) {
  if (rounds == 0) {
    return Status::InvalidArgument("rounds must be > 0");
  }
  return CalibrateMu(epsilon, delta, [&](double mu) {
    return SkellamSubsampledEpsilon(mu, l1_sensitivity, l2_sensitivity, q,
                                    rounds, delta);
  });
}

}  // namespace sqm
