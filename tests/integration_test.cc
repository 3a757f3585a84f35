// End-to-end tests exercising the full SQM stack: quantization + local
// Skellam noise + BGW over the simulated network + server post-processing,
// and the cross-mechanism comparisons the paper's evaluation rests on.

#include <gtest/gtest.h>

#include <cmath>

#include "core/sqm.h"
#include "dp/skellam.h"
#include "math/stats.h"
#include "mpc/bgw.h"
#include "mpc/field.h"
#include "net/lockstep.h"
#include "vfl/logistic.h"
#include "vfl/pca.h"
#include "vfl/synthetic.h"

namespace sqm {
namespace {

TEST(IntegrationTest, FullSqmPipelineOverBgwRecoversPolynomialSum) {
  // The paper's running example f(x) = x0^3 + 1.5 x1 x2 + 2, evaluated over
  // a small vertically partitioned database by 3 clients via BGW, with
  // noise disabled to isolate correctness.
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial::Power(1.0, 0, 3));
  p.AddTerm(Monomial(1.5, {{1, 1}, {2, 1}}));
  p.AddTerm(Monomial(2.0));
  f.AddDimension(p);

  Matrix x{{0.2, -0.3, 0.4}, {0.5, 0.1, -0.2}, {-0.4, 0.6, 0.3}};
  double exact = 0.0;
  for (size_t i = 0; i < 3; ++i) exact += p.Evaluate(x.Row(i));

  SqmOptions options;
  options.gamma = 512.0;
  options.mu = 0.0;
  options.backend = MpcBackend::kBgw;
  options.max_f_l2 = 4.0;
  const SqmReport report =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  EXPECT_NEAR(report.estimate[0], exact, 0.01);
  EXPECT_GT(report.transport.totals.messages, 0u);
  EXPECT_GT(report.transport.totals.rounds, 0u);
}

TEST(IntegrationTest, AggregateNoiseVarianceMatchesCalibratedMu) {
  // End to end: calibrate mu for (eps, delta), run the full mechanism many
  // times on a fixed database, and check that the release variance matches
  // 2*mu (the Skellam aggregate) plus the quantization jitter.
  Matrix x(10, 2);
  for (size_t i = 0; i < 10; ++i) {
    x(i, 0) = 0.25;  // Exact multiples of 1/gamma: no rounding jitter.
    x(i, 1) = -0.5;
  }
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial(1.0, {{0, 1}, {1, 1}}));
  f.AddDimension(p);

  const double gamma = 16.0;
  const double d2 = gamma * gamma * 1.0 + 2.0;  // Lemma-5-style bound.
  const double mu =
      CalibrateSkellamMuSingleRelease(2.0, 1e-5, d2 * d2, d2).ValueOrDie();

  std::vector<double> raws;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    SqmOptions options;
    options.gamma = gamma;
    options.mu = mu;
    options.seed = seed;
    options.quantize_coefficients = false;
    const SqmReport report =
        SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
    raws.push_back(static_cast<double>(report.raw[0]));
  }
  const double expected_signal = 10.0 * 0.25 * -0.5 * gamma * gamma;
  EXPECT_NEAR(Mean(raws), expected_signal,
              5.0 * std::sqrt(2.0 * mu / 2000.0));
  EXPECT_NEAR(Variance(raws) / (2.0 * mu), 1.0, 0.1);
}

TEST(IntegrationTest, PrivacyUtilityOrderingOnPca) {
  // The qualitative shape of Figure 2: central >= SQM(fine) >= SQM(coarse)
  // >> local DP, and everything below the non-private ceiling.
  SyntheticPcaSpec spec;
  spec.rows = 400;
  spec.cols = 16;
  spec.rank = 4;
  spec.seed = 21;
  const Matrix x = GeneratePcaDataset(spec).features;

  PcaOptions options;
  options.k = 4;
  options.epsilon = 2.0;

  const double exact = NonPrivatePca(x, 4).ValueOrDie().utility;
  const double central = CentralDpPca(x, options).ValueOrDie().utility;
  options.gamma = 4096.0;
  const double sqm_fine = SqmPca(x, options).ValueOrDie().utility;
  options.gamma = 2.0;
  const double sqm_coarse = SqmPca(x, options).ValueOrDie().utility;
  const double local = LocalDpPca(x, options).ValueOrDie().utility;

  EXPECT_GE(exact * 1.001, central);
  // Fine SQM ~ central (either may win a given noise draw; they must stay
  // within 10% of each other).
  EXPECT_NEAR(sqm_fine / central, 1.0, 0.1);
  EXPECT_GT(sqm_fine, sqm_coarse * 0.999);
  EXPECT_GT(sqm_fine, local);
}

TEST(IntegrationTest, SqmLogisticOverBgwMatchesPlaintextTraining) {
  // Train two tiny models, one with the BGW backend and one with the
  // plaintext backend, same seeds: identical releases => identical weights.
  SyntheticLrSpec spec;
  spec.rows = 120;
  spec.cols = 4;
  spec.seed = 33;
  const TrainTestSplit split =
      SplitTrainTest(GenerateLrDataset(spec), 0.7, 2).ValueOrDie();

  LogisticOptions options;
  options.epsilon = 4.0;
  options.sample_rate = 0.1;
  options.rounds = 4;
  options.gamma = 256.0;
  options.seed = 11;

  options.backend = MpcBackend::kPlaintext;
  const LogisticResult plain =
      TrainSqmLogistic(split.train, split.test, options).ValueOrDie();
  options.backend = MpcBackend::kBgw;
  const LogisticResult mpc =
      TrainSqmLogistic(split.train, split.test, options).ValueOrDie();

  ASSERT_EQ(plain.weights.size(), mpc.weights.size());
  for (size_t j = 0; j < plain.weights.size(); ++j) {
    EXPECT_NEAR(plain.weights[j], mpc.weights[j], 1e-12);
  }
  EXPECT_GT(mpc.network.messages, 0u);
}

TEST(IntegrationTest, SqmLogisticOverBgwCountsWireBytes) {
  // Every epoch's release adds its transport totals to the result. Each
  // epoch's cross-party sends carry Field::kWireBytes per element, so the
  // summed bytes are that width times the summed elements: nonzero for a
  // BGW run.
  SyntheticLrSpec spec;
  spec.rows = 120;
  spec.cols = 4;
  spec.seed = 33;
  const TrainTestSplit split =
      SplitTrainTest(GenerateLrDataset(spec), 0.7, 2).ValueOrDie();
  LogisticOptions options;
  options.epsilon = 4.0;
  options.sample_rate = 0.1;
  options.rounds = 3;
  options.gamma = 256.0;
  options.seed = 11;
  options.backend = MpcBackend::kBgw;
  const LogisticResult mpc =
      TrainSqmLogistic(split.train, split.test, options).ValueOrDie();

  EXPECT_GT(mpc.network.field_elements, 0u);
  EXPECT_GT(mpc.network.bytes(), 0u);
  EXPECT_EQ(mpc.network.wire_bytes,
            mpc.network.field_elements * Field::kWireBytes);
}

TEST(IntegrationTest, ServerEpsilonIndependentOfClientCount) {
  // Section V-C "On data partitioning": the server-observed guarantee
  // depends on gamma and mu only; re-partitioning the columns among a
  // different number of clients must not change the release distribution's
  // calibration.
  SyntheticPcaSpec spec;
  spec.rows = 60;
  spec.cols = 8;
  spec.seed = 13;
  const Matrix x = GeneratePcaDataset(spec).features;

  PcaOptions options;
  options.k = 2;
  options.epsilon = 1.0;
  options.gamma = 512.0;
  options.num_clients = 8;
  const PcaResult with8 = SqmPca(x, options).ValueOrDie();
  options.num_clients = 4;
  const PcaResult with4 = SqmPca(x, options).ValueOrDie();
  EXPECT_DOUBLE_EQ(with8.mu, with4.mu);  // Same calibrated noise total.
}

TEST(IntegrationTest, BgwRoundStructureMatchesCircuitDepth) {
  // Input rounds (contributing parties) + mul rounds (depth) + open round.
  LockstepTransport network(5, 0.0);
  BgwEngine engine(ShamirScheme(5, 2), &network, 3);
  Circuit c;
  const auto a = c.AddInput(0);
  const auto b = c.AddInput(1);
  const auto d = c.AddInput(2);
  c.MarkOutput(c.AddMul(c.AddMul(a, b), d));  // Depth 2.
  (void)engine.Evaluate(c, {{2}, {3}, {4}, {}, {}}).ValueOrDie();
  EXPECT_EQ(network.stats().rounds, 3u + 2u + 1u);
}

}  // namespace
}  // namespace sqm
