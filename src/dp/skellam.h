#ifndef SQM_DP_SKELLAM_H_
#define SQM_DP_SKELLAM_H_

#include <cstddef>

#include "core/status.h"

namespace sqm {

/// RDP accounting for the Skellam mechanism (Lemma 1 of the paper,
/// following Agarwal et al. and Bao et al.'s Skellam mixture mechanism).

/// Lemma 1: RDP bound at integer order `alpha` for injecting Sk(mu) into an
/// integer-valued function with L1/L2 sensitivities delta1/delta2:
///   tau <= alpha*delta2^2/(4 mu)
///          + min(((2 alpha - 1) delta2^2 + 6 delta1) / (16 mu^2),
///                3 delta1 / (4 mu)).
double SkellamRdp(double alpha, double l1_sensitivity, double l2_sensitivity,
                  double mu);

/// Server-observed RDP of a single SQM release (Lemmas 3/4/5): the server
/// sees noise Sk(mu).
double SkellamRdpServer(double alpha, double l1_sensitivity,
                        double l2_sensitivity, double mu);

/// Client-observed RDP (Lemmas 3/4/5): a client knows its own noise share,
/// so the effective noise is Sk((n-1)/n * mu), and the sensitivity doubles
/// (replace-one neighboring under a known record count). The lemma states
///   tau_client = alpha n delta2^2 / ((n-1) mu) + 3 n delta1 / (2 (n-1) mu).
double SkellamRdpClient(double alpha, double l1_sensitivity,
                        double l2_sensitivity, double mu, size_t num_clients);

/// Epsilon of a single SQM release at the given delta (best alpha over the
/// default grid).
double SkellamEpsilonSingleRelease(double mu, double l1_sensitivity,
                                   double l2_sensitivity, double delta);

/// Epsilon of R composed Poisson-subsampled SQM releases (the LR training
/// loop of Lemma 7), server-observed.
double SkellamSubsampledEpsilon(double mu, double l1_sensitivity,
                                double l2_sensitivity, double q, size_t rounds,
                                double delta);

/// Smallest mu achieving (epsilon, delta) server-observed DP for a single
/// release; epsilon is decreasing in mu. Both calibrators grow a bracket
/// and bisect it with BisectDecreasing (rdp.h): at most 200 steps, stopping
/// at the first step that leaves the bracket unchanged, which is a fixed
/// point, so the mu returned is bit for bit the one all 200 steps give
/// (about 55 steps run). Each step asks EpsilonTarget::MissedBy whether
/// epsilon(mu) exceeds the target, with the alpha scan's mu-free parts
/// computed once per calibration. Both return kInvalidArgument for an
/// epsilon no mu reaches: at or below the alpha grid's floor (0.0446 at
/// delta = 1e-5).
Result<double> CalibrateSkellamMuSingleRelease(double epsilon, double delta,
                                               double l1_sensitivity,
                                               double l2_sensitivity);

/// Smallest mu achieving (epsilon, delta) server-observed DP for R
/// subsampled releases (Lemma 7 accounting). The same search on a
/// SubsampledCurve: Lemma 11's mu-free log terms are computed once per
/// calibration and the base taus once per step.
Result<double> CalibrateSkellamMuSubsampled(double epsilon, double delta,
                                            double l1_sensitivity,
                                            double l2_sensitivity, double q,
                                            size_t rounds);

}  // namespace sqm

#endif  // SQM_DP_SKELLAM_H_
