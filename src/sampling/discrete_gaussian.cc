#include "sampling/discrete_gaussian.h"

#include <cmath>

#include "core/logging.h"

namespace sqm {
namespace {

/// Bernoulli(exp(-gamma)) for gamma in [0, 1]: sample A_k ~
/// Bernoulli(gamma / k) until the first failure at k = K; accept iff K is
/// odd. (Taylor-series rejection; exact.)
bool BernoulliExpFraction(double gamma, Rng& rng) {
  uint64_t k = 1;
  for (;;) {
    if (!rng.NextBernoulli(gamma / static_cast<double>(k))) {
      return k % 2 == 1;
    }
    ++k;
  }
}

}  // namespace

bool DiscreteGaussianSampler::BernoulliExp(double gamma, Rng& rng) {
  SQM_CHECK(gamma >= 0.0);
  // exp(-gamma) = exp(-1)^floor(gamma) * exp(-frac): AND of independent
  // events.
  while (gamma > 1.0) {
    if (!BernoulliExpFraction(1.0, rng)) return false;
    gamma -= 1.0;
  }
  return BernoulliExpFraction(gamma, rng);
}

int64_t DiscreteGaussianSampler::SampleDiscreteLaplace(uint64_t t,
                                                       Rng& rng) {
  SQM_CHECK(t >= 1);
  for (;;) {
    // Magnitude X = U + t*V with U uniform in [0, t) accepted w.p.
    // exp(-U/t), and V geometric with success prob 1 - e^{-1}.
    const uint64_t u = rng.NextBounded(t);
    if (!BernoulliExp(static_cast<double>(u) / static_cast<double>(t),
                      rng)) {
      continue;
    }
    uint64_t v = 0;
    while (BernoulliExp(1.0, rng)) ++v;
    const int64_t magnitude =
        static_cast<int64_t>(u) + static_cast<int64_t>(t * v);
    const bool negative = rng.NextBernoulli(0.5);
    if (negative && magnitude == 0) continue;  // Avoid double-counting 0.
    return negative ? -magnitude : magnitude;
  }
}

DiscreteGaussianSampler::DiscreteGaussianSampler(double sigma)
    : sigma_(sigma) {
  SQM_CHECK(sigma > 0.0);
  t_ = static_cast<uint64_t>(std::floor(sigma)) + 1;
}

int64_t DiscreteGaussianSampler::Sample(Rng& rng) const {
  const double sigma_sq = sigma_ * sigma_;
  for (;;) {
    const int64_t y = SampleDiscreteLaplace(t_, rng);
    const double shift =
        std::fabs(static_cast<double>(y)) -
        sigma_sq / static_cast<double>(t_);
    const double gamma = shift * shift / (2.0 * sigma_sq);
    if (BernoulliExp(gamma, rng)) return y;
  }
}

std::vector<int64_t> DiscreteGaussianSampler::SampleVector(
    Rng& rng, size_t count) const {
  std::vector<int64_t> out(count);
  for (auto& v : out) v = Sample(rng);
  return out;
}

}  // namespace sqm
