#ifndef SQM_BENCH_TIMING_COMMON_H_
#define SQM_BENCH_TIMING_COMMON_H_

// Shared machinery for the timing tables (paper Tables II, IV, V): run the
// PCA covariance release and the LR gradient release through the real BGW
// engine over the simulated network (per-round latency 0.1 s, as in the
// paper) and report the overall time next to the marginal cost of DP noise
// injection.

#include <cmath>
#include <cstdio>

#include "core/sqm.h"
#include "vfl/logistic.h"
#include "vfl/pca.h"
#include "vfl/synthetic.h"

namespace sqm {
namespace bench {

struct TimingRow {
  double overall_seconds = 0.0;
  double noise_seconds = 0.0;
  uint64_t messages = 0;
  uint64_t elements = 0;  ///< Field elements on the wire (8 bytes each).
  uint64_t rounds = 0;
};

/// One SQM-PCA covariance release over BGW: n attributes, m records,
/// P clients, gamma = 18 (the paper's Table II setting).
inline TimingRow TimePcaRelease(size_t m, size_t n, size_t clients,
                                double gamma, double latency) {
  SyntheticPcaSpec spec;
  spec.rows = m;
  spec.cols = n;
  spec.rank = std::max<size_t>(2, n / 4);
  spec.seed = 5;
  const Matrix x = GeneratePcaDataset(spec).features;

  PcaOptions options;
  options.k = std::max<size_t>(1, n / 4);
  options.epsilon = 1.0;
  options.gamma = gamma;
  options.num_clients = clients;
  options.backend = MpcBackend::kBgw;
  options.network_latency_seconds = latency;
  const PcaResult result = SqmPca(x, options).ValueOrDie();

  TimingRow row;
  row.overall_seconds = result.timing.TotalSeconds();
  row.noise_seconds = result.timing.noise_injection_seconds;
  row.messages = result.network.messages;
  row.elements = result.network.field_elements;
  row.rounds = result.network.rounds;
  return row;
}

/// One SQM-LR gradient-sum release over BGW for a full m-record batch with
/// d = n - 1 features.
inline TimingRow TimeLrRelease(size_t m, size_t n, size_t clients,
                               double gamma, double latency) {
  SyntheticLrSpec spec;
  spec.rows = m;
  spec.cols = n - 1;
  spec.seed = 5;
  const VflDataset data = GenerateLrDataset(spec);
  const size_t d = data.num_features();

  Matrix batch(m, d + 1);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < d; ++j) batch(i, j) = data.features(i, j);
    batch(i, d) = static_cast<double>(data.labels[i]);
  }
  std::vector<double> w(d, 0.0);
  for (size_t j = 0; j < d; ++j) {
    w[j] = (j % 2 == 0 ? 1.0 : -1.0) / std::sqrt(static_cast<double>(d));
  }
  const PolynomialVector f = BuildLogisticGradientPolynomial(w);

  SqmOptions options;
  options.gamma = gamma;
  options.mu = 1000.0;  // Fixed noise: the table measures time, not utility.
  options.num_clients = clients;
  options.backend = MpcBackend::kBgw;
  options.network_latency_seconds = latency;
  options.max_f_l2 = 0.75;
  const SqmReport report =
      SqmEvaluator(options).Evaluate(f, batch).ValueOrDie();

  TimingRow row;
  row.overall_seconds = report.timing.TotalSeconds();
  row.noise_seconds = report.timing.noise_injection_seconds;
  row.messages = report.transport.totals.messages;
  row.elements = report.transport.totals.field_elements;
  row.rounds = report.transport.totals.rounds;
  return row;
}

inline void PrintTimingHeader(const char* variable) {
  std::printf("%-14s %-18s %-18s %-12s %-10s\n", variable,
              "overall time (s)", "time for DP (s)", "messages", "rounds");
}

inline void PrintTimingRow(size_t value, const TimingRow& row) {
  std::printf("%-14zu %-18.3f %-18.4f %-12llu %-10llu\n", value,
              row.overall_seconds, row.noise_seconds,
              static_cast<unsigned long long>(row.messages),
              static_cast<unsigned long long>(row.rounds));
}

}  // namespace bench
}  // namespace sqm

#endif  // SQM_BENCH_TIMING_COMMON_H_
