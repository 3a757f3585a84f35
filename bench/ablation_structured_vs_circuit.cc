// Ablation (Table I footnote): generic circuit evaluation of the expanded
// polynomial versus the structured circuit of mpc/ops.h.
//
// For the LR gradient, the expanded degree-2 polynomial has O(d^2)
// monomials per record, so the circuit engine performs O(m d^2) secure
// multiplications. The structured circuit computes the record factor
// v_i = c-hat + <w-hat, x-hat_i> + l-hat y-hat_i locally on shares (public
// coefficients) and only multiplies v * x — m d secure products in one
// batched round — which is how the paper's O(m (n-1)) LR complexity row
// arises.
// For PCA both paths perform m * n(n+1)/2 products; the structured path
// wins on rounds and engine overhead only.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/quantize.h"
#include "core/sqm.h"
#include "core/sqm_plan.h"
#include "mpc/bgw.h"
#include "mpc/ops.h"
#include "net/lockstep.h"
#include "sampling/rng.h"
#include "vfl/logistic.h"
#include "vfl/synthetic.h"

namespace sqm {
namespace {

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct PathCost {
  double seconds = 0.0;
  uint64_t elements = 0;
  uint64_t rounds = 0;
  std::vector<int64_t> release;
};

/// SQM options shared by both paths, so they quantize identically.
SqmOptions PathOptions(double gamma) {
  SqmOptions options;
  options.gamma = gamma;
  options.mu = 0.0;
  options.backend = MpcBackend::kBgw;
  options.max_f_l2 = 0.75;
  options.seed = 5;
  return options;
}

/// Circuit path: the generic SQM evaluator over the expanded polynomial.
PathCost RunCircuitPath(const Matrix& batch,
                        const std::vector<double>& weights, double gamma) {
  const PolynomialVector f = BuildLogisticGradientPolynomial(weights);
  SqmEvaluator evaluator(PathOptions(gamma));
  const auto start = std::chrono::steady_clock::now();
  const SqmReport report = evaluator.Evaluate(f, batch).ValueOrDie();
  PathCost cost;
  cost.seconds = SecondsSince(start);
  cost.elements = report.transport.totals.field_elements;
  cost.rounds = report.transport.totals.rounds;
  cost.release = report.raw;
  return cost;
}

/// Structured path: the circuit path's SqmPlan quantizes the data, and its
/// coefficient stream rounds the structured coefficients; then the
/// structured circuit on the BGW engine.
PathCost RunStructuredPath(const Matrix& batch,
                           const std::vector<double>& weights,
                           double gamma) {
  const size_t d = weights.size();
  const SqmPlan plan =
      SqmPlan::Create(BuildLogisticGradientPolynomial(weights),
                      PathOptions(gamma), batch.rows(), batch.cols())
          .ValueOrDie();
  const QuantizedDatabase db = plan.PrepareInputs(batch).db;
  Rng coeff_rng = plan.coefficient_stream();

  StructuredGradientInputs inputs;
  inputs.feature_columns.resize(d);
  for (size_t j = 0; j < d; ++j) inputs.feature_columns[j] = db.columns[j];
  inputs.labels = db.columns[d];
  inputs.weights.resize(d);
  for (size_t j = 0; j < d; ++j) {
    inputs.weights[j] = StochasticRound(weights[j] / 4.0, gamma, coeff_rng);
  }
  inputs.half_coefficient = StochasticRound(0.5, gamma * gamma, coeff_rng);
  inputs.label_coefficient =
      StochasticRound(-1.0, gamma, coeff_rng);
  inputs.noise_per_client.assign(d + 1, std::vector<int64_t>(d, 0));

  LockstepTransport network(d + 1, 0.0);
  BgwEngine engine(ShamirScheme(d + 1, d / 2), &network, 5);
  const auto start = std::chrono::steady_clock::now();
  const StructuredCircuit op = NoisyStructuredGradient(inputs).ValueOrDie();
  PathCost cost;
  cost.release = engine.Evaluate(op.circuit, op.inputs).ValueOrDie();
  cost.seconds = SecondsSince(start);
  cost.elements = network.stats().field_elements;
  cost.rounds = network.stats().rounds;
  return cost;
}

}  // namespace
}  // namespace sqm

int main(int argc, char** argv) {
  using namespace sqm;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);

  bench::PrintHeader(
      "Ablation: structured secure ops vs generic circuit (LR gradient)",
      "same quantized release, different evaluation strategies");

  const double gamma = 18.0;
  const size_t m = config.paper_scale ? 200 : 40;
  std::printf("%-6s %-6s | %-12s %-14s %-8s | %-12s %-14s %-8s\n", "d", "m",
              "circuit s", "elements", "rounds", "structured s", "elements",
              "rounds");
  bench::PrintRule();
  for (size_t d : config.paper_scale
                      ? std::vector<size_t>{16, 32, 64, 128}
                      : std::vector<size_t>{8, 16, 32}) {
    SyntheticLrSpec spec;
    spec.rows = m;
    spec.cols = d;
    spec.seed = 2;
    const VflDataset data = GenerateLrDataset(spec);
    Matrix batch(m, d + 1);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < d; ++j) batch(i, j) = data.features(i, j);
      batch(i, d) = static_cast<double>(data.labels[i]);
    }
    std::vector<double> w(d, 0.0);
    Rng wr(7);
    for (auto& wi : w) wi = (wr.NextDouble() - 0.5) / std::sqrt(
                                 static_cast<double>(d));

    const PathCost circuit = RunCircuitPath(batch, w, gamma);
    const PathCost structured = RunStructuredPath(batch, w, gamma);
    std::printf(
        "%-6zu %-6zu | %-12.4f %-14llu %-8llu | %-12.4f %-14llu %-8llu\n",
        d, m, circuit.seconds,
        static_cast<unsigned long long>(circuit.elements),
        static_cast<unsigned long long>(circuit.rounds), structured.seconds,
        static_cast<unsigned long long>(structured.elements),
        static_cast<unsigned long long>(structured.rounds));
  }

  std::printf(
      "\nReading: the circuit path's traffic grows ~d^2 per record while "
      "the structured path grows ~d, with a constant round count — the "
      "gap is the Table I footnote. (The two releases differ only in "
      "rounding randomness; both are exact SQM evaluations.)\n");
  return 0;
}
