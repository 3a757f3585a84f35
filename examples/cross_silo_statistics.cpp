// Example: the paper's introduction scenario, concretely — an e-commerce
// platform and an online payment service hold complementary attributes of
// a shared user base and want joint statistics without exposing users.
//
//   ./build/examples/cross_silo_statistics
//
// Client 0 (e-commerce)  holds x0 = 1{user browsed electronics this week}
// Client 1 (e-commerce)  holds x1 = normalized basket value
// Client 2 (payments)    holds x2 = 1{user has an installment plan}
// Client 3 (payments)    holds x3 = normalized monthly card spend
//
// Joint statistics, all polynomials over the vertically partitioned data:
//   S1 = sum x0*x2      — co-occurrence count: browsers with installments
//   S2 = sum x1*x3      — cross-silo spend correlation (unnormalized)
//   S3 = sum x0*x3^2    — spend concentration among browsers
// released together under one (epsilon, delta) budget via SQM.

#include <cmath>
#include <cstdio>

#include "core/sqm.h"
#include "dp/skellam.h"
#include "poly/parser.h"
#include "sampling/rng.h"
#include "vfl/dataset.h"

int main() {
  using namespace sqm;

  // --- Synthesize the joint user base (in reality, no party ever holds
  // this matrix; it exists only column-wise across the silos).
  const size_t users = 5000;
  Matrix x(users, 4);
  Rng rng(99);
  for (size_t i = 0; i < users; ++i) {
    const bool browses = rng.NextBernoulli(0.3);
    const double basket = browses ? 0.3 + 0.4 * rng.NextDouble()
                                  : 0.1 * rng.NextDouble();
    // Installment plans correlate with browsing electronics.
    const bool installment = rng.NextBernoulli(browses ? 0.5 : 0.15);
    const double spend = 0.2 * rng.NextDouble() +
                         (installment ? 0.3 : 0.0) +
                         0.3 * basket;
    x(i, 0) = browses ? 1.0 : 0.0;
    x(i, 1) = basket;
    x(i, 2) = installment ? 1.0 : 0.0;
    x(i, 3) = spend;
  }
  NormalizeRecords(x, 1.0);

  // --- The released statistics, written in the text grammar.
  const PolynomialVector f =
      ParsePolynomialVector("x0*x2; x1*x3; x0*x3^2").ValueOrDie();

  // --- Exact values (for the comparison printout only).
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < users; ++i) rows.push_back(x.Row(i));
  const std::vector<double> exact = f.EvaluateSum(rows);

  // --- One SQM release covering all three statistics.
  const double gamma = 1024.0;  // Degree-3 statistic: gamma^4 scale, so
                                // stay within the 2^61-1 field (the
                                // capacity guard refuses 4096 here).
  const double epsilon = 1.0;
  const double delta = 1e-5;
  const SensitivityBound sens =
      PolynomialSensitivity(f, gamma, /*record_norm=*/1.0,
                            /*max_f_l2=*/std::sqrt(3.0));
  const double mu =
      CalibrateSkellamMuSingleRelease(epsilon, delta, sens.l1, sens.l2)
          .ValueOrDie();

  SqmOptions options;
  options.gamma = gamma;
  options.mu = mu;
  options.backend = MpcBackend::kBgw;
  options.max_f_l2 = std::sqrt(3.0);
  options.seed = 7;
  const SqmReport report =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();

  std::printf("Cross-silo statistics over %zu users, (eps=%.2g, "
              "delta=%.0e), 4 clients, BGW:\n\n",
              users, epsilon, delta);
  const char* labels[3] = {
      "browsers with installment plans (count-like)",
      "basket-value x card-spend correlation",
      "spend concentration among browsers"};
  for (size_t t = 0; t < 3; ++t) {
    std::printf("  %-46s exact %10.4f | released %10.4f\n", labels[t],
                exact[t], report.estimate[t]);
  }
  const NetworkStats& traffic = report.transport.totals;
  std::printf("\nNo silo saw the other's columns (BGW: %llu messages, "
              "%llu rounds); the release itself is differentially "
              "private, so even a data-extraction attack on the published "
              "statistics is bounded by (%.2g, %.0e).\n",
              static_cast<unsigned long long>(traffic.messages),
              static_cast<unsigned long long>(traffic.rounds), epsilon,
              delta);
  return 0;
}
