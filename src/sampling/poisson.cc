#include "sampling/poisson.h"

#include <math.h>

#include <cmath>

#include "core/logging.h"

namespace sqm {

PoissonSampler::PoissonSampler(double mu) : mu_(mu) {
  SQM_CHECK(mu >= 0.0);
  if (mu_ >= kPtrsThreshold) {
    b_ = 0.931 + 2.53 * std::sqrt(mu_);
    a_ = -0.059 + 0.02483 * b_;
    inv_alpha_ = 1.1239 + 1.1328 / (b_ - 3.4);
    v_r_ = 0.9277 - 3.6224 / (b_ - 2.0);
    log_mu_ = std::log(mu_);
  } else {
    b_ = a_ = inv_alpha_ = v_r_ = log_mu_ = 0.0;
  }
}

int64_t PoissonSampler::Sample(Rng& rng) const {
  if (mu_ == 0.0) return 0;
  return mu_ < kPtrsThreshold ? SampleKnuth(rng) : SamplePtrs(rng);
}

std::vector<int64_t> PoissonSampler::SampleVector(Rng& rng,
                                                  size_t count) const {
  std::vector<int64_t> out(count);
  for (auto& v : out) v = Sample(rng);
  return out;
}

int64_t PoissonSampler::SampleKnuth(Rng& rng) const {
  // Multiply uniforms until the product drops below e^{-mu}.
  const double limit = std::exp(-mu_);
  int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.NextDouble();
  } while (p > limit);
  return k - 1;
}

int64_t PoissonSampler::SamplePtrs(Rng& rng) const {
  // Hörmann (1993), "The transformed rejection method for generating Poisson
  // random variables", algorithm PTRS. Exact for mu >= 10.
  for (;;) {
    const double u = rng.NextDouble() - 0.5;
    const double v = rng.NextDouble();
    const double us = 0.5 - std::fabs(u);
    const double kf = std::floor((2.0 * a_ / us + b_) * u + mu_ + 0.43);
    if (us >= 0.07 && v <= v_r_) return static_cast<int64_t>(kf);
    if (kf < 0.0 || (us < 0.013 && v > us)) continue;
    const double k = kf;
    const double lhs =
        std::log(v * inv_alpha_ / (a_ / (us * us) + b_));
    // lgamma_r, not std::lgamma: glibc's lgamma writes the global
    // `signgam`, a data race when parties sample noise concurrently.
    int sign = 0;
    const double rhs = k * log_mu_ - mu_ - ::lgamma_r(k + 1.0, &sign);
    if (lhs <= rhs) return static_cast<int64_t>(kf);
  }
}

}  // namespace sqm
