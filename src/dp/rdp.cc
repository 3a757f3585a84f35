#include "dp/rdp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

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

const std::vector<double>& DefaultAlphaGrid() {
  static const std::vector<double> alphas = [] {
    std::vector<double> grid;
    for (size_t a = 2; a <= 128; ++a) grid.push_back(static_cast<double>(a));
    return grid;
  }();
  return alphas;
}

double BisectDecreasing(double lo, double hi, size_t max_steps,
                        const std::function<bool(double)>& above) {
  for (size_t step = 0; step < max_steps; ++step) {
    const double mid = 0.5 * (lo + hi);
    double& end = above(mid) ? lo : hi;
    if (end == mid) break;  // (lo, hi) is a fixed point of the step
    end = mid;
  }
  return hi;
}

Result<double> GrowBracket(double hi, double growth, size_t max_growths,
                           const std::string& what,
                           const std::function<bool(double)>& above) {
  for (size_t grown = 0; above(hi); ++grown) {
    if (grown == max_growths) {
      return Status::Internal(what + " bracket expansion failed");
    }
    hi *= growth;
  }
  return hi;
}

Result<EpsilonTarget> EpsilonTarget::Make(const std::string& who,
                                          double epsilon, double delta) {
  if (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument(
        who + ": need epsilon > 0 and delta in (0, 1)");
  }
  std::vector<double> offsets;
  for (double alpha : DefaultAlphaGrid()) {
    offsets.push_back(RdpToEpsilon(alpha, 0.0, delta));
  }
  const double floor = *std::min_element(offsets.begin(), offsets.end());
  if (epsilon <= floor) {
    // The stream's default %g-style format: a delta of 1e-9 prints as
    // 1e-09, where std::to_string's six decimals print 0.000000.
    std::ostringstream message;
    message << who << ": epsilon " << epsilon
            << " is unreachable; Renyi orders up to 128 give at least "
            << floor << " at delta " << delta;
    return Status::InvalidArgument(message.str());
  }
  return EpsilonTarget(epsilon, std::move(offsets));
}

bool EpsilonTarget::MissedBy(
    const std::function<double(double)>& tau_of_alpha) const {
  for (size_t i = 0; i < offsets_.size(); ++i) {
    const double tau = tau_of_alpha(DefaultAlphaGrid()[i]);
    if (std::isfinite(tau) && tau + offsets_[i] <= epsilon_) return false;
  }
  return true;
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
  const double a = static_cast<double>(alpha);
  return SubsampledCurve(q, 1, {a}).SetBase(tau_at_order)(a);
}

SubsampledCurve::SubsampledCurve(double q, size_t rounds,
                                 const std::vector<double>& alphas)
    : q_(q),
      rounds_(static_cast<double>(rounds)),
      log_terms_(static_cast<size_t>(alphas.back()) + 1),
      taus_(log_terms_.size()) {
  SQM_CHECK(alphas.front() >= 2.0);
  SQM_CHECK(q > 0.0 && q <= 1.0);
  if (q == 1.0) return;
  const double log1mq = std::log1p(-q);
  const double logq = std::log(q);
  for (double a : alphas) {
    const size_t alpha = static_cast<size_t>(a);
    // l in {0, 1} combine to (1-q)^{alpha-1} (alpha*q - q + 1); entry l - 1
    // is C(alpha, l) (1-q)^{alpha-l} q^l, times e^{(l-1) tau_l} later.
    std::vector<double>& terms = log_terms_[alpha];
    terms.push_back((a - 1.0) * log1mq + std::log(a * q - q + 1.0));
    for (size_t l = 2; l <= alpha; ++l) {
      terms.push_back(LogBinomial(alpha, l) +
                      (a - static_cast<double>(l)) * log1mq +
                      static_cast<double>(l) * logq);
    }
  }
}

const SubsampledCurve& SubsampledCurve::SetBase(
    const std::function<double(size_t)>& tau_at_order) {
  for (size_t l = 2; l < taus_.size(); ++l) taus_[l] = tau_at_order(l);
  return *this;
}

double SubsampledCurve::operator()(double alpha) const {
  const size_t order = static_cast<size_t>(alpha);
  if (q_ == 1.0) return rounds_ * taus_[order];
  terms_ = log_terms_[order];
  for (size_t l = 2; l <= order; ++l) {
    terms_[l - 1] += (static_cast<double>(l) - 1.0) * taus_[l];
  }
  // The terms' exact sum is >= 1 (it is 1 when every tau_l is 0), so RDP
  // is never negative; the clamp removes only the rounding of tau_l ~ 0.
  return rounds_ * std::max(0.0, LogSumExp(terms_) / (alpha - 1.0));
}

}  // namespace sqm
