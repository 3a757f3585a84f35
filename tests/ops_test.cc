#include "mpc/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "net/lockstep.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

class OpsTest : public ::testing::Test {
 protected:
  static constexpr size_t kParties = 5;

  OpsTest()
      : network_(kParties, 0.0),
        protocol_(ShamirScheme(kParties, 2), &network_, 71),
        ops_(&protocol_) {}

  LockstepTransport network_;
  BgwProtocol protocol_;
  SecureOps ops_;
};

TEST_F(OpsTest, ShareColumnsRoundTrip) {
  std::vector<std::vector<int64_t>> columns(kParties);
  for (size_t j = 0; j < kParties; ++j) {
    columns[j] = {static_cast<int64_t>(j), -static_cast<int64_t>(j), 7};
  }
  const auto shared = ops_.ShareColumns(columns).ValueOrDie();
  ASSERT_EQ(shared.size(), kParties);
  for (size_t j = 0; j < kParties; ++j) {
    EXPECT_EQ(protocol_.OpenSigned(shared[j]).ValueOrDie(), columns[j]);
  }
}

TEST_F(OpsTest, ShareColumnsValidatesShape) {
  EXPECT_FALSE(ops_.ShareColumns({{1}, {2}}).ok());  // Wrong party count.
  std::vector<std::vector<int64_t>> ragged(kParties, {1, 2});
  ragged[3] = {1};
  EXPECT_FALSE(ops_.ShareColumns(ragged).ok());
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
  EXPECT_EQ(ops_.NoisySum(contributions, noise).ValueOrDie(), expected);
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
      ops_.NoisyCovarianceUpper(columns, zero_noise).ValueOrDie();
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
  const std::vector<int64_t> gram =
      ops_.NoisyCovarianceUpper(columns, noise).ValueOrDie();
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
  (void)ops_.NoisyCovarianceUpper(columns, noise).ValueOrDie();
  const uint64_t rounds_used = network_.stats().rounds - rounds_before;
  // n column sharings + 1 mul + n noise sharings + 1 open.
  EXPECT_EQ(rounds_used, kParties + 1 + kParties + 1);
}

TEST(OpsLogisticTest, GradientMatchesPlaintextFormula) {
  // d = 3 feature clients + 1 label client.
  const size_t d = 3;
  const size_t m = 6;
  LockstepTransport network(d + 1, 0.0);
  BgwProtocol protocol(ShamirScheme(d + 1, 1), &network, 9);
  SecureOps ops(&protocol);

  Rng rng(8);
  SecureOps::LogisticGradientInputs inputs;
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
      ops.NoisyLogisticGradient(inputs).ValueOrDie();
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
  BgwProtocol protocol(ShamirScheme(d + 1, 2), &network, 10);
  SecureOps ops(&protocol);

  SecureOps::LogisticGradientInputs inputs;
  inputs.feature_columns.assign(d, std::vector<int64_t>(m, 1));
  inputs.labels.assign(m, 1);
  inputs.weights.assign(d, 1);
  inputs.half_coefficient = 1;
  inputs.label_coefficient = 1;
  inputs.noise_per_client.assign(d + 1, std::vector<int64_t>(d, 0));

  (void)ops.NoisyLogisticGradient(inputs).ValueOrDie();
  // Rounds: d feature sharings + 1 label sharing + 1 mul + (d+1) noise
  // sharings + 1 open.
  EXPECT_EQ(network.stats().rounds, d + 1 + 1 + (d + 1) + 1);
}

TEST(OpsLogisticTest, ValidatesShapes) {
  LockstepTransport network(4, 0.0);
  BgwProtocol protocol(ShamirScheme(4, 1), &network, 11);
  SecureOps ops(&protocol);

  SecureOps::LogisticGradientInputs inputs;
  inputs.feature_columns.assign(2, std::vector<int64_t>(3, 0));  // d=2 but
  inputs.labels.assign(3, 0);                                    // 4 parties.
  inputs.weights.assign(2, 1);
  inputs.noise_per_client.assign(4, std::vector<int64_t>(2, 0));
  EXPECT_FALSE(ops.NoisyLogisticGradient(inputs).ok());
}


TEST(OpsLinearTest, GradientMatchesPlaintextFormula) {
  const size_t d = 3;
  const size_t m = 5;
  LockstepTransport network(d + 1, 0.0);
  BgwProtocol protocol(ShamirScheme(d + 1, 1), &network, 12);
  SecureOps ops(&protocol);

  Rng rng(14);
  SecureOps::LinearGradientInputs inputs;
  inputs.feature_columns.resize(d);
  for (auto& col : inputs.feature_columns) {
    for (size_t i = 0; i < m; ++i) {
      col.push_back(static_cast<int64_t>(rng.NextBounded(9)) - 4);
    }
  }
  for (size_t i = 0; i < m; ++i) {
    inputs.targets.push_back(static_cast<int64_t>(rng.NextBounded(33)) -
                             16);
  }
  inputs.weights = {2, -1, 4};
  inputs.target_coefficient = -16;
  inputs.noise_per_client.assign(d + 1, std::vector<int64_t>(d, 0));
  inputs.noise_per_client[2][0] = -7;

  const std::vector<int64_t> grad =
      ops.NoisyLinearGradient(inputs).ValueOrDie();
  ASSERT_EQ(grad.size(), d);
  for (size_t t = 0; t < d; ++t) {
    int64_t expected = 0;
    for (size_t i = 0; i < m; ++i) {
      int64_t u = 0;
      for (size_t j = 0; j < d; ++j) {
        u += inputs.weights[j] * inputs.feature_columns[j][i];
      }
      expected += u * inputs.feature_columns[t][i];
      expected += inputs.target_coefficient * inputs.targets[i] *
                  inputs.feature_columns[t][i];
    }
    if (t == 0) expected += -7;
    EXPECT_EQ(grad[t], expected) << "t=" << t;
  }
}

TEST(OpsLinearTest, ValidatesShapes) {
  LockstepTransport network(4, 0.0);
  BgwProtocol protocol(ShamirScheme(4, 1), &network, 13);
  SecureOps ops(&protocol);
  SecureOps::LinearGradientInputs inputs;
  inputs.feature_columns.assign(3, std::vector<int64_t>(2, 0));
  inputs.targets.assign(2, 0);
  inputs.weights.assign(2, 1);  // Wrong length.
  inputs.noise_per_client.assign(4, std::vector<int64_t>(3, 0));
  EXPECT_FALSE(ops.NoisyLinearGradient(inputs).ok());
}

}  // namespace
}  // namespace sqm
