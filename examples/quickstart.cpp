// Quickstart: evaluate a polynomial over a vertically partitioned database
// with distributed differential privacy, end to end, in ~40 lines of user
// code.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Scenario: three organizations each hold one attribute of the same user
// base (e.g. a search engine holds x0, a payment provider x1, a retailer
// x2). They want the server to learn F(X) = sum_x (x0 * x1 + 0.5 * x2^2)
// without any party seeing another's column and with the output protected
// by (epsilon, delta)-DP.

#include <cmath>
#include <cstdio>

#include "core/confidence.h"
#include "core/sqm.h"
#include "dp/skellam.h"
#include "sampling/rng.h"
#include "vfl/dataset.h"

int main() {
  using namespace sqm;

  // --- The function of interest: f(x) = x0*x1 + 0.5*x2^2 (degree 2).
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial(1.0, {{0, 1}, {1, 1}}));
  p.AddTerm(Monomial::Power(0.5, 2, 2));
  f.AddDimension(p);

  // --- A toy database: 200 records, 3 attributes, ||x||_2 <= 1.
  Matrix x(200, 3);
  Rng rng(7);
  for (auto& v : x.data()) v = rng.NextDouble() - 0.5;
  NormalizeRecords(x, 1.0);

  // --- Exact value (for comparison only; never computed in production).
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < x.rows(); ++i) rows.push_back(x.Row(i));
  const double exact = f.EvaluateSum(rows)[0];

  // --- Calibrate the total Skellam noise for (eps=1, delta=1e-5) using
  // the generic sensitivity bound of Lemma 4.
  const double gamma = 2048.0;
  const SensitivityBound sens = PolynomialSensitivity(f, gamma,
                                                      /*record_norm=*/1.0,
                                                      /*max_f_l2=*/1.0);
  const double mu =
      CalibrateSkellamMuSingleRelease(/*epsilon=*/1.0, /*delta=*/1e-5,
                                      sens.l1, sens.l2)
          .ValueOrDie();

  // --- Run SQM: each client quantizes its column (Algorithm 2), samples a
  // Sk(mu/3) noise share, and the three clients evaluate the quantized
  // polynomial with aggregate noise Sk(mu) through the BGW protocol.
  SqmOptions options;
  options.gamma = gamma;
  options.mu = mu;
  options.backend = MpcBackend::kBgw;  // Real MPC over a simulated network.
  options.max_f_l2 = 1.0;
  SqmEvaluator evaluator(options);
  const SqmReport report = evaluator.Evaluate(f, x).ValueOrDie();

  std::printf("Exact       F(X) = %.6f\n", exact);
  std::printf("SQM release F(X) = %.6f   (eps=1, delta=1e-5)\n",
              report.estimate[0]);
  const ReleaseInterval ci =
      SkellamReleaseInterval(report.estimate[0], mu,
                             std::pow(gamma, 3.0), 0.95)
          .ValueOrDie();
  std::printf("95%% noise interval: [%.4f, %.4f] (noise std %.4f)\n",
              ci.lower, ci.upper, ci.noise_std);
  std::printf("Noise parameter mu = %.3g; quantization gamma = %g\n", mu,
              gamma);
  const NetworkStats& traffic = report.transport.totals;
  std::printf("BGW traffic: %llu messages, %llu field elements, %llu "
              "rounds\n",
              static_cast<unsigned long long>(traffic.messages),
              static_cast<unsigned long long>(traffic.field_elements),
              static_cast<unsigned long long>(traffic.rounds));
  std::printf("Client-observed RDP at alpha=8: tau = %.4g (server: "
              "%.4g)\n",
              SkellamRdpClient(8.0, sens.l1, sens.l2, mu, 3),
              SkellamRdpServer(8.0, sens.l1, sens.l2, mu));
  return 0;
}
