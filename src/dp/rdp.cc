#include "dp/rdp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/logging.h"

namespace sqm {

double RdpToEpsilon(double alpha, double tau, double delta) {
  SQM_CHECK(alpha > 1.0);
  SQM_CHECK(delta > 0.0 && delta < 1.0);
  SQM_CHECK(tau >= 0.0);
  // Lemma 9: eps = tau + [log(1/delta) + (alpha-1) log(1 - 1/alpha)
  //                       - log(alpha)] / (alpha - 1).
  return tau + (std::log(1.0 / delta) +
                (alpha - 1.0) * std::log(1.0 - 1.0 / alpha) -
                std::log(alpha)) /
                   (alpha - 1.0);
}

double BestEpsilonFromCurve(const std::function<double(double)>& tau_of_alpha,
                            const std::vector<double>& alphas, double delta,
                            double* best_alpha) {
  SQM_CHECK(!alphas.empty());
  double best = std::numeric_limits<double>::infinity();
  double arg = alphas.front();
  for (double alpha : alphas) {
    const double tau = tau_of_alpha(alpha);
    if (!std::isfinite(tau)) continue;
    const double eps = RdpToEpsilon(alpha, tau, delta);
    if (eps < best) {
      best = eps;
      arg = alpha;
    }
  }
  if (best_alpha != nullptr) *best_alpha = arg;
  return best;
}

PrivacyGuarantee GuaranteeFromCurve(
    const std::function<double(double)>& tau_of_alpha,
    const std::vector<double>& alphas, double delta) {
  PrivacyGuarantee guarantee;
  guarantee.delta = delta;
  guarantee.epsilon =
      BestEpsilonFromCurve(tau_of_alpha, alphas, delta,
                           &guarantee.best_alpha);
  return guarantee;
}

std::vector<double> DefaultAlphaGrid() {
  std::vector<double> alphas;
  for (size_t a = 2; a <= 128; ++a) alphas.push_back(static_cast<double>(a));
  return alphas;
}

double ComposeRdp(const std::vector<double>& taus) {
  double total = 0.0;
  for (double tau : taus) total += tau;
  return total;
}

double LogBinomial(size_t n, size_t k) {
  SQM_CHECK(k <= n);
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

double LogSumExp(const std::vector<double>& xs) {
  SQM_CHECK(!xs.empty());
  const double max_x = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(max_x)) return max_x;
  double acc = 0.0;
  for (double x : xs) acc += std::exp(x - max_x);
  return max_x + std::log(acc);
}

double SubsampledRdp(size_t alpha, double q,
                     const std::function<double(size_t)>& tau_at_order) {
  SQM_CHECK(alpha >= 2);
  SQM_CHECK(q > 0.0 && q <= 1.0);
  if (q == 1.0) return tau_at_order(alpha);

  const double a = static_cast<double>(alpha);
  const double log1mq = std::log1p(-q);
  const double logq = std::log(q);

  std::vector<double> log_terms;
  log_terms.reserve(alpha);
  // l in {0, 1} combine to (1-q)^{alpha-1} (alpha*q - q + 1).
  log_terms.push_back((a - 1.0) * log1mq + std::log(a * q - q + 1.0));
  // l = 2..alpha: C(alpha, l) (1-q)^{alpha-l} q^l e^{(l-1) tau_l}.
  for (size_t l = 2; l <= alpha; ++l) {
    const double tau_l = tau_at_order(l);
    log_terms.push_back(LogBinomial(alpha, l) +
                        (a - static_cast<double>(l)) * log1mq +
                        static_cast<double>(l) * logq +
                        (static_cast<double>(l) - 1.0) * tau_l);
  }
  // The terms' exact sum is >= 1 (it is 1 when every tau_l is 0), so RDP
  // is never negative; the clamp removes only the rounding of tau_l ~ 0.
  return std::max(0.0, LogSumExp(log_terms) / (a - 1.0));
}

}  // namespace sqm
