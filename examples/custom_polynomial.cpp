// Example: the SQM pipeline opened up — every step of Algorithm 3 done
// manually with the library's building blocks, for users who want to embed
// the mechanism in their own protocol stack rather than call SqmEvaluator.
//
//   ./build/examples/custom_polynomial
//
// Steps shown: (1) coefficient quantization with per-degree compensation,
// (2) per-client data quantization, (3) local Skellam noise shares,
// (4) hand-built BGW circuit evaluation, (5) server post-processing,
// (6) RDP -> (eps, delta) accounting for both adversaries.

#include <cstdio>

#include "core/quantize.h"
#include "core/sensitivity.h"
#include "dp/rdp.h"
#include "dp/skellam.h"
#include "mpc/bgw.h"
#include "net/lockstep.h"
#include "sampling/rng.h"
#include "sampling/skellam_sampler.h"

int main() {
  using namespace sqm;

  // The paper's running example: f(x) = x0^3 + 1.5 x1 x2 + 2 over three
  // clients, one attribute each.
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial::Power(1.0, 0, 3));
  p.AddTerm(Monomial(1.5, {{1, 1}, {2, 1}}));
  p.AddTerm(Monomial(2.0));
  f.AddDimension(p);

  Matrix x{{0.31, -0.22, 0.40}, {0.12, 0.55, -0.37}, {-0.45, 0.08, 0.29}};
  const size_t num_clients = 3;
  const double gamma = 256.0;

  Rng rng(2024);

  // (1) Coefficient quantization: the constant 2 has degree 0, the cubic
  // term degree 3 -> scales gamma^4 and gamma^1 respectively, so that every
  // monomial is amplified by gamma^{lambda+1} = gamma^4.
  Rng coeff_rng = rng.Split(1);
  const QuantizedPolynomial qf =
      QuantizePolynomial(f, gamma, coeff_rng).ValueOrDie();
  std::printf("Quantized coefficients (output scale gamma^%u = %.3g):\n",
              qf.degree + 1, qf.output_scale);
  for (const QuantizedMonomial& qm : qf.dims[0]) {
    std::printf("  degree-%zu monomial -> %lld\n", [&] {
      size_t deg = 0;
      for (const auto& [var, e] : qm.exponents) deg += e;
      return deg;
    }(), static_cast<long long>(qm.coefficient));
  }

  // (2) Each client quantizes its own column (Algorithm 2).
  Rng data_rng = rng.Split(2);
  const QuantizedDatabase db = QuantizeDatabase(x, gamma, data_rng);

  // (3) Each client samples its Skellam noise share Sk(mu / n) *before*
  // the protocol starts (timing-attack robustness).
  const SensitivityBound sens = PolynomialSensitivity(f, gamma, 1.0, 2.0);
  const double mu =
      CalibrateSkellamMuSingleRelease(1.0, 1e-5, sens.l1, sens.l2)
          .ValueOrDie();
  const SkellamSampler share_sampler(mu / num_clients);
  std::vector<int64_t> noise_shares(num_clients);
  for (size_t j = 0; j < num_clients; ++j) {
    Rng client_rng = rng.Split(10 + j);
    noise_shares[j] = share_sampler.Sample(client_rng);
  }

  // (4) Build the BGW circuit by hand: inputs are each client's quantized
  // column plus its noise share; output is the noisy aggregate.
  Circuit circuit;
  std::vector<std::vector<Circuit::WireId>> col(3);
  std::vector<std::vector<int64_t>> inputs(num_clients);
  for (size_t j = 0; j < num_clients; ++j) {
    for (size_t i = 0; i < db.rows; ++i) {
      col[j].push_back(circuit.AddInput(j));
      inputs[j].push_back(db.at(i, j));
    }
  }
  std::vector<Circuit::WireId> noise_wires;
  for (size_t j = 0; j < num_clients; ++j) {
    noise_wires.push_back(circuit.AddInput(j));
    inputs[j].push_back(noise_shares[j]);
  }
  Circuit::WireId acc = circuit.AddConstant(0);
  for (size_t i = 0; i < db.rows; ++i) {
    // x0^3 term.
    Circuit::WireId cube =
        circuit.AddMul(circuit.AddMul(col[0][i], col[0][i]), col[0][i]);
    acc = circuit.AddAdd(
        acc, circuit.AddMulConst(cube,
                                 Field::Encode(qf.dims[0][0].coefficient)));
    // 1.5 x1 x2 term.
    Circuit::WireId cross = circuit.AddMul(col[1][i], col[2][i]);
    acc = circuit.AddAdd(
        acc, circuit.AddMulConst(cross,
                                 Field::Encode(qf.dims[0][1].coefficient)));
    // Constant term.
    acc = circuit.AddAdd(
        acc, circuit.AddConstant(Field::Encode(qf.dims[0][2].coefficient)));
  }
  for (Circuit::WireId w : noise_wires) acc = circuit.AddAdd(acc, w);
  circuit.MarkOutput(acc);
  std::printf("\nCircuit: %s\n", circuit.Summary().c_str());

  LockstepTransport network(num_clients, /*latency=*/0.1);
  BgwEngine engine(ShamirScheme(num_clients, 1), &network, 99);
  const std::vector<int64_t> raw =
      engine.Evaluate(circuit, inputs).ValueOrDie();

  // (5) Server post-processing: down-scale by gamma^{lambda+1}.
  const double estimate = static_cast<double>(raw[0]) / qf.output_scale;
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < x.rows(); ++i) rows.push_back(x.Row(i));
  std::printf("Exact F(X) = %.6f, SQM release = %.6f\n",
              f.EvaluateSum(rows)[0], estimate);
  std::printf("Simulated protocol time: %.1f s over %llu rounds\n",
              network.SimulatedSeconds(),
              static_cast<unsigned long long>(network.stats().rounds));

  // (6) Accounting: RDP curves for both adversaries, converted to
  // (eps, delta).
  const auto server_curve = [&](double alpha) {
    return SkellamRdpServer(alpha, sens.l1, sens.l2, mu);
  };
  const auto client_curve = [&](double alpha) {
    return SkellamRdpClient(alpha, sens.l1, sens.l2, mu, num_clients);
  };
  std::printf("Server-observed epsilon at delta=1e-5: %.4f\n",
              BestEpsilonFromCurve(server_curve, DefaultAlphaGrid(), 1e-5));
  std::printf("Client-observed epsilon at delta=1e-5: %.4f (each client "
              "knows its own noise share)\n",
              BestEpsilonFromCurve(client_curve, DefaultAlphaGrid(), 1e-5));
  return 0;
}
