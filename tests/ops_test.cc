#include "mpc/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "mpc/bgw.h"
#include "net/lockstep.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

/// Evaluates a structured circuit on a fresh lockstep driver; the network
/// is returned through `network` for round counts.
std::vector<int64_t> EvaluateOp(const Result<StructuredCircuit>& built,
                         LockstepTransport* network, size_t threshold,
                         uint64_t seed) {
  const StructuredCircuit& op = built.ValueOrDie();
  BgwEngine engine(ShamirScheme(network->num_parties(), threshold), network,
                   seed);
  return engine.Evaluate(op.circuit, op.inputs).ValueOrDie();
}

class OpsTest : public ::testing::Test {
 protected:
  static constexpr size_t kParties = 5;

  OpsTest() : network_(kParties, 0.0) {}

  std::vector<int64_t> Evaluate(const Result<StructuredCircuit>& built) {
    return EvaluateOp(built, &network_, 2, 71);
  }

  LockstepTransport network_;
};

TEST_F(OpsTest, ShareColumnsRoundTrip) {
  // Each party's inputs are its column, then its noise share — the layout
  // SqmPlan::CircuitInputs uses.
  std::vector<std::vector<int64_t>> columns(kParties);
  for (size_t j = 0; j < kParties; ++j) {
    columns[j] = {static_cast<int64_t>(j), -static_cast<int64_t>(j), 7};
  }
  const size_t d = kParties * (kParties + 1) / 2;
  std::vector<std::vector<int64_t>> noise(kParties,
                                          std::vector<int64_t>(d, 0));
  noise[2][4] = 9;
  const StructuredCircuit op =
      NoisyCovarianceUpper(columns, noise).ValueOrDie();
  ASSERT_EQ(op.inputs.size(), kParties);
  for (size_t j = 0; j < kParties; ++j) {
    std::vector<int64_t> expected = columns[j];
    expected.insert(expected.end(), noise[j].begin(), noise[j].end());
    EXPECT_EQ(op.inputs[j], expected);
    EXPECT_EQ(op.circuit.NumInputsForParty(j), expected.size());
  }
}

TEST_F(OpsTest, ShareColumnsValidatesShape) {
  const std::vector<std::vector<int64_t>> noise(
      kParties, std::vector<int64_t>(kParties * (kParties + 1) / 2, 0));
  // Wrong noise-vector count for two columns.
  EXPECT_FALSE(NoisyCovarianceUpper({{1}, {2}}, noise).ok());
  std::vector<std::vector<int64_t>> ragged(kParties, {1, 2});
  ragged[3] = {1};
  EXPECT_FALSE(NoisyCovarianceUpper(ragged, noise).ok());
}

TEST_F(OpsTest, NoisySumMatchesPlaintext) {
  std::vector<std::vector<int64_t>> contributions(kParties);
  std::vector<std::vector<int64_t>> noise(kParties);
  std::vector<int64_t> expected(3, 0);
  Rng rng(5);
  for (size_t j = 0; j < kParties; ++j) {
    for (int t = 0; t < 3; ++t) {
      contributions[j].push_back(
          static_cast<int64_t>(rng.NextBounded(100)) - 50);
      noise[j].push_back(static_cast<int64_t>(rng.NextBounded(20)) - 10);
      expected[t] += contributions[j][t] + noise[j][t];
    }
  }
  EXPECT_EQ(Evaluate(NoisySum(contributions, noise)), expected);
}

TEST_F(OpsTest, CovarianceMatchesPlaintextGram) {
  const size_t m = 7;
  std::vector<std::vector<int64_t>> columns(kParties);
  Rng rng(6);
  for (auto& col : columns) {
    for (size_t i = 0; i < m; ++i) {
      col.push_back(static_cast<int64_t>(rng.NextBounded(21)) - 10);
    }
  }
  const size_t d = kParties * (kParties + 1) / 2;
  std::vector<std::vector<int64_t>> zero_noise(
      kParties, std::vector<int64_t>(d, 0));

  const std::vector<int64_t> gram =
      Evaluate(NoisyCovarianceUpper(columns, zero_noise));
  size_t pair = 0;
  for (size_t i = 0; i < kParties; ++i) {
    for (size_t j = i; j < kParties; ++j, ++pair) {
      int64_t expected = 0;
      for (size_t r = 0; r < m; ++r) {
        expected += columns[i][r] * columns[j][r];
      }
      EXPECT_EQ(gram[pair], expected) << "pair (" << i << "," << j << ")";
    }
  }
}

TEST_F(OpsTest, CovarianceInjectsNoise) {
  std::vector<std::vector<int64_t>> columns(
      kParties, std::vector<int64_t>(3, 0));  // Zero data.
  const size_t d = kParties * (kParties + 1) / 2;
  std::vector<std::vector<int64_t>> noise(
      kParties, std::vector<int64_t>(d, 1));  // Each client adds 1.
  const std::vector<int64_t> gram = Evaluate(NoisyCovarianceUpper(columns, noise));
  for (int64_t value : gram) {
    EXPECT_EQ(value, static_cast<int64_t>(kParties));
  }
}

TEST_F(OpsTest, CovarianceUsesOneMultiplicationRound) {
  std::vector<std::vector<int64_t>> columns(
      kParties, std::vector<int64_t>(4, 1));
  const size_t d = kParties * (kParties + 1) / 2;
  std::vector<std::vector<int64_t>> noise(
      kParties, std::vector<int64_t>(d, 0));
  const uint64_t rounds_before = network_.stats().rounds;
  (void)Evaluate(NoisyCovarianceUpper(columns, noise));
  const uint64_t rounds_used = network_.stats().rounds - rounds_before;
  // n sharings (each client's column and noise in one) + 1 mul + 1 open.
  EXPECT_EQ(rounds_used, kParties + 1 + 1);
}

TEST(OpsLogisticTest, GradientMatchesPlaintextFormula) {
  // d = 3 feature clients + 1 label client.
  const size_t d = 3;
  const size_t m = 6;
  LockstepTransport network(d + 1, 0.0);

  Rng rng(8);
  StructuredGradientInputs inputs;
  inputs.feature_columns.resize(d);
  for (auto& col : inputs.feature_columns) {
    for (size_t i = 0; i < m; ++i) {
      col.push_back(static_cast<int64_t>(rng.NextBounded(9)) - 4);
    }
  }
  for (size_t i = 0; i < m; ++i) {
    inputs.labels.push_back(static_cast<int64_t>(rng.NextBounded(2)) * 16);
  }
  inputs.weights = {3, -2, 5};
  inputs.half_coefficient = 128;
  inputs.label_coefficient = -16;
  inputs.noise_per_client.assign(d + 1, std::vector<int64_t>(d, 0));
  inputs.noise_per_client[0][1] = 11;  // One nonzero noise share.

  const std::vector<int64_t> grad =
      EvaluateOp(NoisyStructuredGradient(inputs), &network, 1, 9);
  ASSERT_EQ(grad.size(), d);

  for (size_t t = 0; t < d; ++t) {
    int64_t expected = 0;
    for (size_t i = 0; i < m; ++i) {
      int64_t u = 0;
      for (size_t j = 0; j < d; ++j) {
        u += inputs.weights[j] * inputs.feature_columns[j][i];
      }
      expected += inputs.half_coefficient * inputs.feature_columns[t][i];
      expected += u * inputs.feature_columns[t][i];
      expected += inputs.label_coefficient * inputs.labels[i] *
                  inputs.feature_columns[t][i];
    }
    if (t == 1) expected += 11;
    EXPECT_EQ(grad[t], expected) << "t=" << t;
  }
}

TEST(OpsLogisticTest, GradientUsesTwoInteractiveSteps) {
  // The structured path: one batched Mul round covers all O(m d) products;
  // the inner product with public weights costs nothing.
  const size_t d = 4;
  const size_t m = 5;
  LockstepTransport network(d + 1, 0.0);

  StructuredGradientInputs inputs;
  inputs.feature_columns.assign(d, std::vector<int64_t>(m, 1));
  inputs.labels.assign(m, 1);
  inputs.weights.assign(d, 1);
  inputs.half_coefficient = 1;
  inputs.label_coefficient = 1;
  inputs.noise_per_client.assign(d + 1, std::vector<int64_t>(d, 0));

  (void)EvaluateOp(NoisyStructuredGradient(inputs), &network, 2, 10);
  // Rounds: d feature sharings + 1 label sharing (each with its noise) +
  // 1 mul + 1 open.
  EXPECT_EQ(network.stats().rounds, d + 1 + 1 + 1);
}

TEST(OpsLogisticTest, ValidatesShapes) {
  StructuredGradientInputs inputs;
  inputs.feature_columns.assign(2, std::vector<int64_t>(3, 0));  // d=2 but
  inputs.labels.assign(3, 0);                                    // 4 noise
  inputs.weights.assign(2, 1);                                   // vectors.
  inputs.noise_per_client.assign(4, std::vector<int64_t>(2, 0));
  EXPECT_FALSE(NoisyStructuredGradient(inputs).ok());
}


TEST(OpsLinearTest, GradientMatchesPlaintextFormula) {
  const size_t d = 3;
  const size_t m = 5;
  LockstepTransport network(d + 1, 0.0);

  // The linear gradient is the logistic one without the c x term.
  Rng rng(14);
  StructuredGradientInputs inputs;
  inputs.feature_columns.resize(d);
  for (auto& col : inputs.feature_columns) {
    for (size_t i = 0; i < m; ++i) {
      col.push_back(static_cast<int64_t>(rng.NextBounded(9)) - 4);
    }
  }
  for (size_t i = 0; i < m; ++i) {
    inputs.labels.push_back(static_cast<int64_t>(rng.NextBounded(33)) -
                             16);
  }
  inputs.weights = {2, -1, 4};
  inputs.label_coefficient = -16;
  inputs.noise_per_client.assign(d + 1, std::vector<int64_t>(d, 0));
  inputs.noise_per_client[2][0] = -7;

  const std::vector<int64_t> grad =
      EvaluateOp(NoisyStructuredGradient(inputs), &network, 1, 12);
  ASSERT_EQ(grad.size(), d);
  for (size_t t = 0; t < d; ++t) {
    int64_t expected = 0;
    for (size_t i = 0; i < m; ++i) {
      int64_t u = 0;
      for (size_t j = 0; j < d; ++j) {
        u += inputs.weights[j] * inputs.feature_columns[j][i];
      }
      expected += u * inputs.feature_columns[t][i];
      expected += inputs.label_coefficient * inputs.labels[i] *
                  inputs.feature_columns[t][i];
    }
    if (t == 0) expected += -7;
    EXPECT_EQ(grad[t], expected) << "t=" << t;
  }
}

TEST(OpsLinearTest, ValidatesShapes) {
  StructuredGradientInputs inputs;
  inputs.feature_columns.assign(3, std::vector<int64_t>(2, 0));
  inputs.labels.assign(2, 0);
  inputs.weights.assign(2, 1);  // Wrong length.
  inputs.noise_per_client.assign(4, std::vector<int64_t>(3, 0));
  EXPECT_FALSE(NoisyStructuredGradient(inputs).ok());
}

}  // namespace
}  // namespace sqm
