#include "vfl/pca.h"

#include <chrono>
#include <cmath>

#include "core/baseline.h"
#include "core/logging.h"
#include "mpc/field.h"
#include "core/sensitivity.h"
#include "core/sqm_plan.h"
#include "dp/gaussian.h"
#include "dp/skellam.h"
#include "math/eigen.h"
#include "math/linalg.h"
#include "sampling/gaussian_sampler.h"
#include "vfl/dataset.h"
#include "vfl/metrics.h"

namespace sqm {
namespace {

Status ValidateOptions(const Matrix& x, const PcaOptions& options) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty data matrix");
  }
  if (options.k == 0 || options.k > x.cols()) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (options.epsilon <= 0.0 || options.delta <= 0.0 ||
      options.delta >= 1.0) {
    return Status::InvalidArgument(
        "need epsilon > 0 and delta in (0, 1)");
  }
  if (options.record_norm_bound <= 0.0) {
    return Status::InvalidArgument("record_norm_bound must be positive");
  }
  return Status::OK();
}

Matrix NormalizedCopy(const Matrix& x, double bound) {
  Matrix out = x;
  NormalizeRecords(out, bound);
  return out;
}

Result<PcaResult> FinishFromCovariance(const Matrix& x,
                                       const Matrix& covariance, size_t k,
                                       uint64_t seed) {
  TopKOptions eig;
  eig.seed = seed ^ 0xe16e;
  SQM_ASSIGN_OR_RETURN(Matrix subspace, TopKEigenvectors(covariance, k, eig));
  PcaResult result;
  result.utility = PcaUtility(x, subspace);
  result.subspace = std::move(subspace);
  return result;
}

}  // namespace

Result<PcaResult> SqmPca(const Matrix& x, const PcaOptions& options) {
  SQM_RETURN_NOT_OK(ValidateOptions(x, options));
  const Matrix clean = NormalizedCopy(x, options.record_norm_bound);
  const size_t n = clean.cols();
  const size_t num_clients =
      options.num_clients == 0 ? n : options.num_clients;
  if (num_clients < 2 || num_clients > n) {
    return Status::InvalidArgument("num_clients must be in [2, n]");
  }

  // Lemma 5 sensitivity and the single-release Skellam calibration.
  const SensitivityBound sens =
      PcaSensitivity(options.gamma, options.record_norm_bound, n);
  SQM_ASSIGN_OR_RETURN(
      const double mu,
      CalibrateSkellamMuSingleRelease(options.epsilon, options.delta,
                                      sens.l1, sens.l2));

  // The upper-triangle outer-product polynomial. Its coefficients are all 1
  // and its monomials all of degree 2, so they are not pre-processed
  // (Section V-A).
  PolynomialVector f;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      Polynomial p;
      p.AddTerm(i == j ? Monomial::Power(1.0, i, 2)
                       : Monomial(1.0, {{i, 1}, {j, 1}}));
      f.AddDimension(std::move(p));
    }
  }
  SqmOptions sqm_options;
  sqm_options.gamma = options.gamma;
  sqm_options.mu = mu;
  sqm_options.num_clients = num_clients;
  sqm_options.backend = options.backend;
  sqm_options.network_latency_seconds = options.network_latency_seconds;
  sqm_options.seed = options.seed;
  sqm_options.max_f_l2 =
      options.record_norm_bound * options.record_norm_bound;
  sqm_options.quantize_coefficients = false;

  SqmReport report;
  if (options.backend == MpcBackend::kBgw) {
    // Faithful path: the generic SQM evaluator, through the BGW engine.
    SQM_ASSIGN_OR_RETURN(report, SqmEvaluator(sqm_options).Evaluate(f, clean));
  } else {
    // Fast plaintext path: the same plan — so the same quantized columns,
    // noise and down-scaling, and a release bit-identical to the BGW
    // path's — with the generic per-row evaluation replaced by the integer
    // Gram matrix of the quantized columns.
    SQM_ASSIGN_OR_RETURN(const SqmPlan plan,
                         SqmPlan::Create(f, sqm_options, clean.rows(), n));
    const SqmPlan::Inputs inputs = plan.PrepareInputs(clean);
    const auto compute_start = std::chrono::steady_clock::now();
    std::vector<int64_t> gram;
    for (size_t i = 0; i < n; ++i) {
      const std::vector<int64_t>& col_i = inputs.db.columns[i];
      for (size_t j = i; j < n; ++j) {
        const std::vector<int64_t>& col_j = inputs.db.columns[j];
        __int128 acc = 0;
        for (size_t r = 0; r < inputs.db.rows; ++r) {
          acc += static_cast<__int128>(col_i[r]) * col_j[r];
        }
        if (acc > Field::kMaxCentered || acc < -Field::kMaxCentered) {
          return Status::OutOfRange(
              "Gram entry exceeds field capacity; lower gamma");
        }
        gram.push_back(static_cast<int64_t>(acc));
      }
    }
    SQM_ASSIGN_OR_RETURN(report, plan.ReleaseInClear(inputs, compute_start,
                                                     std::move(gram)));
  }

  Matrix covariance(n, n);
  size_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j, ++t) {
      covariance(i, j) = report.estimate[t];
      covariance(j, i) = report.estimate[t];
    }
  }
  SQM_ASSIGN_OR_RETURN(
      PcaResult result,
      FinishFromCovariance(clean, covariance, options.k, options.seed));
  result.mu = mu;
  result.timing = report.timing;
  result.network = report.transport.totals;
  return result;
}

Result<PcaResult> CentralDpPca(const Matrix& x, const PcaOptions& options) {
  SQM_RETURN_NOT_OK(ValidateOptions(x, options));
  const Matrix clean = NormalizedCopy(x, options.record_norm_bound);
  const size_t n = clean.cols();

  // Analyze-Gauss: Frobenius sensitivity of X^T X is c^2 (Section V-A).
  const double c2 =
      options.record_norm_bound * options.record_norm_bound;
  SQM_ASSIGN_OR_RETURN(
      const double sigma,
      CalibrateGaussianSigma(options.epsilon, options.delta, c2));

  Matrix covariance = Gram(clean);
  Rng rng(options.seed ^ 0xa6a55);
  GaussianSampler sampler(sigma);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double noise = sampler.Sample(rng);
      covariance(i, j) += noise;
      if (j != i) covariance(j, i) += noise;
    }
  }
  SQM_ASSIGN_OR_RETURN(
      PcaResult result,
      FinishFromCovariance(clean, covariance, options.k, options.seed));
  result.sigma = sigma;
  return result;
}

Result<PcaResult> LocalDpPca(const Matrix& x, const PcaOptions& options) {
  SQM_RETURN_NOT_OK(ValidateOptions(x, options));
  const Matrix clean = NormalizedCopy(x, options.record_norm_bound);

  SQM_ASSIGN_OR_RETURN(
      const double sigma,
      CalibrateLocalDpSigma(options.epsilon, options.delta,
                            options.record_norm_bound));
  const Matrix noisy =
      PerturbDatabaseLocally(clean, sigma, options.seed ^ 0x10ca1);
  const Matrix covariance = Gram(noisy);
  SQM_ASSIGN_OR_RETURN(
      PcaResult result,
      FinishFromCovariance(clean, covariance, options.k, options.seed));
  result.sigma = sigma;
  return result;
}

Result<PcaResult> NonPrivatePca(const Matrix& x, size_t k) {
  if (k == 0 || k > x.cols()) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  return FinishFromCovariance(x, Gram(x), k, /*seed=*/0);
}

}  // namespace sqm
