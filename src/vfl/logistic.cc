#include "vfl/logistic.h"

#include <algorithm>
#include <cmath>

#include "core/baseline.h"
#include "core/logging.h"
#include "core/sensitivity.h"
#include "dp/gaussian.h"
#include "dp/skellam.h"
#include "math/linalg.h"
#include "poly/taylor.h"
#include "sampling/gaussian_sampler.h"
#include "sampling/rng.h"
#include "vfl/metrics.h"

namespace sqm {
namespace {

Status ValidateCommon(const VflDataset& train, const VflDataset& test,
                      const LogisticOptions& options) {
  if (!train.has_labels() || !test.has_labels()) {
    return Status::InvalidArgument("logistic regression needs labels");
  }
  if (train.num_features() != test.num_features()) {
    return Status::InvalidArgument("train/test feature dimension mismatch");
  }
  if (train.num_records() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (options.sample_rate <= 0.0 || options.sample_rate > 1.0) {
    return Status::InvalidArgument("sample_rate must be in (0, 1]");
  }
  if (options.rounds == 0) {
    return Status::InvalidArgument("rounds must be > 0");
  }
  if (options.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (options.weight_clip <= 0.0) {
    return Status::InvalidArgument("weight_clip must be positive");
  }
  return Status::OK();
}

/// Normalized copies so that ||x||_2 <= 1 per record, as the paper assumes.
VflDataset NormalizedCopy(const VflDataset& data) {
  VflDataset out = data;
  NormalizeRecords(out.features, 1.0);
  return out;
}

/// Random unit-ball initial weights, clipped like the paper ("the server
/// randomly initializes the model weight w, and clips ||w||_2 to 1").
std::vector<double> InitialWeights(size_t d, double clip, Rng& rng) {
  GaussianSampler gaussian(0.1);
  std::vector<double> w(d);
  for (auto& wi : w) wi = gaussian.Sample(rng);
  ClipNorm(w, clip);
  return w;
}

/// Poisson batch selection with shared randomness (clients agree on the
/// membership; the server never learns it).
std::vector<size_t> PoissonBatch(size_t m, double q, Rng& rng) {
  std::vector<size_t> batch;
  for (size_t i = 0; i < m; ++i) {
    if (rng.NextBernoulli(q)) batch.push_back(i);
  }
  return batch;
}

LogisticResult FinishResult(std::vector<double> weights,
                            const VflDataset& train, const VflDataset& test) {
  LogisticResult result;
  result.train_accuracy = Accuracy(weights, train);
  result.test_accuracy = Accuracy(weights, test);
  result.weights = std::move(weights);
  return result;
}

}  // namespace

PolynomialVector BuildLogisticGradientPolynomial(
    const std::vector<double>& weights, size_t taylor_order) {
  SQM_CHECK(taylor_order == 1);  // Higher orders explode combinatorially;
                                 // the paper uses H = 1 (Section V-B).
  const size_t d = weights.size();
  const size_t label_var = d;
  PolynomialVector f;
  for (size_t t = 0; t < d; ++t) {
    Polynomial p;
    // (1/2) x_t.
    p.AddTerm(Monomial::Power(0.5, t, 1));
    // sum_j (w_j / 4) x_j x_t  (j == t merges into x_t^2).
    for (size_t j = 0; j < d; ++j) {
      if (weights[j] == 0.0) continue;
      p.AddTerm(Monomial(weights[j] / 4.0, {{j, 1}, {t, 1}}));
    }
    // -y x_t.
    p.AddTerm(Monomial(-1.0, {{label_var, 1}, {t, 1}}));
    f.AddDimension(std::move(p));
  }
  return f;
}

Result<LogisticResult> TrainSqmLogistic(const VflDataset& train,
                                        const VflDataset& test,
                                        const LogisticOptions& options) {
  SQM_RETURN_NOT_OK(ValidateCommon(train, test, options));
  if (options.taylor_order != 1) {
    return Status::Unimplemented(
        "SQM logistic regression supports Taylor order 1 only (higher "
        "orders make the expanded polynomial intractable; see Section V-B)");
  }
  const VflDataset clean_train = NormalizedCopy(train);
  const VflDataset clean_test = NormalizedCopy(test);
  const size_t m = clean_train.num_records();
  const size_t d = clean_train.num_features();
  const size_t num_clients =
      options.num_clients == 0 ? d + 1 : options.num_clients;

  // Lemma 7: sensitivity of one quantized gradient-sum release, then the
  // subsampled + composed calibration of mu.
  const SensitivityBound sens =
      LogisticGradientSensitivity(options.gamma, d);
  SQM_ASSIGN_OR_RETURN(
      const double mu,
      CalibrateSkellamMuSubsampled(options.epsilon, options.delta, sens.l1,
                                   sens.l2, options.sample_rate,
                                   options.rounds));

  Rng rng(options.seed);
  std::vector<double> w =
      InitialWeights(d, options.weight_clip, rng);
  const double expected_batch =
      std::max(1.0, options.sample_rate * static_cast<double>(m));

  LogisticResult result;
  result.mu = mu;
  for (size_t round = 0; round < options.rounds; ++round) {
    const std::vector<size_t> batch = PoissonBatch(m, options.sample_rate,
                                                   rng);
    // An empty batch still consumes a round of the privacy budget but
    // produces a pure-noise gradient; the paper's algorithm behaves the
    // same. We skip the update (noise-only steps are wasted work).
    if (batch.empty()) continue;

    // Assemble the batch database: feature columns plus the label column.
    Matrix batch_db(batch.size(), d + 1);
    for (size_t b = 0; b < batch.size(); ++b) {
      const size_t row = batch[b];
      for (size_t j = 0; j < d; ++j) {
        batch_db(b, j) = clean_train.features(row, j);
      }
      batch_db(b, d) = static_cast<double>(clean_train.labels[row]);
    }

    const PolynomialVector f = BuildLogisticGradientPolynomial(w, 1);

    SqmOptions sqm_options;
    sqm_options.gamma = options.gamma;
    sqm_options.mu = mu;
    sqm_options.num_clients = num_clients;
    sqm_options.backend = options.backend;
    sqm_options.network_latency_seconds = options.network_latency_seconds;
    sqm_options.seed = options.seed ^ (0x10c0 + round);
    sqm_options.max_f_l2 = 0.75;
    SqmEvaluator evaluator(sqm_options);
    SQM_ASSIGN_OR_RETURN(SqmReport report,
                         evaluator.Evaluate(f, batch_db));

    for (size_t j = 0; j < d; ++j) {
      w[j] -= options.learning_rate * report.estimate[j] / expected_batch;
    }
    ClipNorm(w, options.weight_clip);

    result.timing.quantize_seconds += report.timing.quantize_seconds;
    result.timing.noise_sampling_seconds +=
        report.timing.noise_sampling_seconds;
    result.timing.mpc_compute_seconds += report.timing.mpc_compute_seconds;
    result.timing.simulated_network_seconds +=
        report.timing.simulated_network_seconds;
    result.timing.noise_injection_seconds +=
        report.timing.noise_injection_seconds;
    result.network += report.transport.totals;
  }

  LogisticResult finished = FinishResult(std::move(w), clean_train,
                                         clean_test);
  finished.mu = result.mu;
  finished.timing = result.timing;
  finished.network = result.network;
  return finished;
}

Result<LogisticResult> TrainDpSgd(const VflDataset& train,
                                  const VflDataset& test,
                                  const LogisticOptions& options) {
  SQM_RETURN_NOT_OK(ValidateCommon(train, test, options));
  const VflDataset clean_train = NormalizedCopy(train);
  const VflDataset clean_test = NormalizedCopy(test);
  const size_t m = clean_train.num_records();
  const size_t d = clean_train.num_features();

  // Per-record gradients are clipped to C = 1; the calibrated noise
  // multiplier z gives per-round Gaussian noise N(0, z^2 C^2 I).
  constexpr double kClip = 1.0;
  SQM_ASSIGN_OR_RETURN(
      const double z,
      CalibrateDpSgdNoise(options.epsilon, options.delta,
                          options.sample_rate, options.rounds));

  Rng rng(options.seed);
  GaussianSampler noise(z * kClip);
  std::vector<double> w = InitialWeights(d, options.weight_clip, rng);
  const double expected_batch =
      std::max(1.0, options.sample_rate * static_cast<double>(m));

  for (size_t round = 0; round < options.rounds; ++round) {
    const std::vector<size_t> batch = PoissonBatch(m, options.sample_rate,
                                                   rng);
    std::vector<double> grad_sum(d, 0.0);
    for (size_t row : batch) {
      const std::vector<double> x = clean_train.features.Row(row);
      const double err =
          Sigmoid(Dot(w, x)) - static_cast<double>(clean_train.labels[row]);
      std::vector<double> g(d);
      for (size_t j = 0; j < d; ++j) g[j] = err * x[j];
      ClipNorm(g, kClip);
      for (size_t j = 0; j < d; ++j) grad_sum[j] += g[j];
    }
    for (size_t j = 0; j < d; ++j) {
      grad_sum[j] += noise.Sample(rng);
      w[j] -= options.learning_rate * grad_sum[j] / expected_batch;
    }
    ClipNorm(w, options.weight_clip);
  }
  LogisticResult result = FinishResult(std::move(w), clean_train,
                                       clean_test);
  result.sigma = z * kClip;
  return result;
}

Result<LogisticResult> TrainApproxPoly(const VflDataset& train,
                                       const VflDataset& test,
                                       const LogisticOptions& options) {
  SQM_RETURN_NOT_OK(ValidateCommon(train, test, options));
  if (options.taylor_order != 1 && options.taylor_order != 3 &&
      options.taylor_order != 5 && options.taylor_order != 7) {
    return Status::InvalidArgument("taylor_order must be 1, 3, 5 or 7");
  }
  const VflDataset clean_train = NormalizedCopy(train);
  const VflDataset clean_test = NormalizedCopy(test);
  const size_t m = clean_train.num_records();
  const size_t d = clean_train.num_features();

  // The per-record polynomial gradient has ||f(w, (x, y))||_2 <= 3/4 when
  // ||x||, ||w|| <= 1 (Section V-B), so no clipping is needed; the noise is
  // a Gaussian with std z * 3/4.
  constexpr double kSensitivity = 0.75;
  SQM_ASSIGN_OR_RETURN(
      const double z,
      CalibrateDpSgdNoise(options.epsilon, options.delta,
                          options.sample_rate, options.rounds));

  Rng rng(options.seed);
  GaussianSampler noise(z * kSensitivity);
  std::vector<double> w = InitialWeights(d, options.weight_clip, rng);
  const double expected_batch =
      std::max(1.0, options.sample_rate * static_cast<double>(m));

  for (size_t round = 0; round < options.rounds; ++round) {
    const std::vector<size_t> batch = PoissonBatch(m, options.sample_rate,
                                                   rng);
    std::vector<double> grad_sum(d, 0.0);
    for (size_t row : batch) {
      const std::vector<double> x = clean_train.features.Row(row);
      const double err =
          SigmoidTaylor(Dot(w, x), options.taylor_order) -
          static_cast<double>(clean_train.labels[row]);
      for (size_t j = 0; j < d; ++j) grad_sum[j] += err * x[j];
    }
    for (size_t j = 0; j < d; ++j) {
      grad_sum[j] += noise.Sample(rng);
      w[j] -= options.learning_rate * grad_sum[j] / expected_batch;
    }
    ClipNorm(w, options.weight_clip);
  }
  LogisticResult result = FinishResult(std::move(w), clean_train,
                                       clean_test);
  result.sigma = z * kSensitivity;
  return result;
}

Result<LogisticResult> TrainLocalDpLogistic(const VflDataset& train,
                                            const VflDataset& test,
                                            const LogisticOptions& options) {
  SQM_RETURN_NOT_OK(ValidateCommon(train, test, options));
  const VflDataset clean_train = NormalizedCopy(train);
  const VflDataset clean_test = NormalizedCopy(test);
  const size_t m = clean_train.num_records();
  const size_t d = clean_train.num_features();

  // Algorithm 4: perturb the full record (features + label), record norm
  // bound sqrt(1^2 + 1^2).
  const double record_bound = std::sqrt(2.0);
  SQM_ASSIGN_OR_RETURN(
      const double sigma,
      CalibrateLocalDpSigma(options.epsilon, options.delta, record_bound));

  Matrix full(m, d + 1);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < d; ++j) full(i, j) = clean_train.features(i, j);
    full(i, d) = static_cast<double>(clean_train.labels[i]);
  }
  const Matrix noisy =
      PerturbDatabaseLocally(full, sigma, options.seed ^ 0x10ca1);

  // Train on the noisy database until convergence (full-batch GD; the
  // noisy labels are continuous regression targets for the logistic loss).
  Rng rng(options.seed);
  std::vector<double> w = InitialWeights(d, options.weight_clip, rng);
  constexpr size_t kConvergenceIters = 300;
  for (size_t iter = 0; iter < kConvergenceIters; ++iter) {
    std::vector<double> grad(d, 0.0);
    for (size_t i = 0; i < m; ++i) {
      double u = 0.0;
      for (size_t j = 0; j < d; ++j) u += w[j] * noisy(i, j);
      const double err = Sigmoid(u) - noisy(i, d);
      for (size_t j = 0; j < d; ++j) grad[j] += err * noisy(i, j);
    }
    for (size_t j = 0; j < d; ++j) {
      w[j] -= options.learning_rate * grad[j] / static_cast<double>(m);
    }
    ClipNorm(w, options.weight_clip);
  }
  LogisticResult result = FinishResult(std::move(w), clean_train,
                                       clean_test);
  result.sigma = sigma;
  return result;
}

Result<LogisticResult> TrainNonPrivateLogistic(
    const VflDataset& train, const VflDataset& test,
    const LogisticOptions& options) {
  SQM_RETURN_NOT_OK(ValidateCommon(train, test, options));
  const VflDataset clean_train = NormalizedCopy(train);
  const VflDataset clean_test = NormalizedCopy(test);
  const size_t m = clean_train.num_records();
  const size_t d = clean_train.num_features();

  Rng rng(options.seed);
  std::vector<double> w = InitialWeights(d, options.weight_clip, rng);
  for (size_t round = 0; round < options.rounds; ++round) {
    const std::vector<size_t> batch = PoissonBatch(m, options.sample_rate,
                                                   rng);
    if (batch.empty()) continue;
    std::vector<double> grad(d, 0.0);
    for (size_t row : batch) {
      const std::vector<double> x = clean_train.features.Row(row);
      const double err =
          Sigmoid(Dot(w, x)) - static_cast<double>(clean_train.labels[row]);
      for (size_t j = 0; j < d; ++j) grad[j] += err * x[j];
    }
    for (size_t j = 0; j < d; ++j) {
      w[j] -= options.learning_rate * grad[j] /
              static_cast<double>(batch.size());
    }
    ClipNorm(w, options.weight_clip);
  }
  return FinishResult(std::move(w), clean_train, clean_test);
}

}  // namespace sqm
