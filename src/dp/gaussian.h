#ifndef SQM_DP_GAUSSIAN_H_
#define SQM_DP_GAUSSIAN_H_

#include <cstddef>

#include "core/status.h"

namespace sqm {

/// Continuous Gaussian mechanism accounting — used by the central-DP
/// baselines (Analyze-Gauss PCA, DPSGD, Approx-Poly) and the local-DP VFL
/// baseline (Algorithm 4 / Lemma 12).

/// RDP of the Gaussian mechanism: tau = alpha * sensitivity^2 / (2 sigma^2).
double GaussianRdp(double alpha, double l2_sensitivity, double sigma);

/// Exact delta of the Gaussian mechanism at a given epsilon (Balle & Wang,
/// "analytic Gaussian mechanism" — the tight characterization behind the
/// paper's Lemma 8):
///   delta = Phi(D/(2 sigma) - eps sigma / D) - e^eps Phi(-D/(2 sigma) -
///           eps sigma / D),  D = l2_sensitivity.
double GaussianDelta(double epsilon, double l2_sensitivity, double sigma);

/// Smallest sigma such that Gaussian noise with that standard deviation
/// satisfies (epsilon, delta)-DP for the given L2 sensitivity. Bisection on
/// the exact GaussianDelta with BisectDecreasing (rdp.h): at most 200
/// steps, stopping at the fixed point where a step leaves the bracket
/// unchanged, so sigma is bit for bit what all 200 steps return, to the
/// last double of the bracket.
Result<double> CalibrateGaussianSigma(double epsilon, double delta,
                                      double l2_sensitivity);

/// Standard normal CDF.
double StdNormalCdf(double x);

/// DPSGD accounting: epsilon after `rounds` Poisson-subsampled Gaussian
/// steps with sampling rate q, noise multiplier sigma (noise std divided by
/// the clipping norm). Uses the subsampled-RDP bound of Lemma 11 with the
/// Gaussian RDP curve and optimizes over the integer alpha grid.
double DpSgdEpsilon(double noise_multiplier, double q, size_t rounds,
                    double delta);

/// Smallest noise multiplier achieving (epsilon, delta) after `rounds`
/// subsampled steps — the calibration used for the central DPSGD baseline.
/// The same fixed-point bisection (at most 100 steps) on a SubsampledCurve,
/// each step an EpsilonTarget::MissedBy scan, so the multiplier is bit for
/// bit the 100-step one. An epsilon at or below the alpha grid's floor
/// (0.0446 at delta = 1e-5) returns kInvalidArgument naming it.
Result<double> CalibrateDpSgdNoise(double epsilon, double delta, double q,
                                   size_t rounds);

}  // namespace sqm

#endif  // SQM_DP_GAUSSIAN_H_
