#include "vfl/pca.h"

#include <gtest/gtest.h>

#include "math/linalg.h"
#include "vfl/metrics.h"
#include "vfl/synthetic.h"

namespace sqm {
namespace {

Matrix TestData() {
  SyntheticPcaSpec spec;
  spec.rows = 300;
  spec.cols = 12;
  spec.rank = 3;
  spec.noise_level = 0.05;
  spec.seed = 5;
  return GeneratePcaDataset(spec).features;
}

TEST(PcaTest, NonPrivateCapturesLowRankEnergy) {
  const Matrix x = TestData();
  const PcaResult exact = NonPrivatePca(x, 3).ValueOrDie();
  const double total = PcaUtility(x, Matrix::Identity(x.cols()));
  EXPECT_GT(exact.utility / total, 0.9);
  EXPECT_EQ(exact.subspace.rows(), 12u);
  EXPECT_EQ(exact.subspace.cols(), 3u);
}

TEST(PcaTest, CentralDpApproachesNonPrivateAtLargeEpsilon) {
  const Matrix x = TestData();
  const PcaResult exact = NonPrivatePca(x, 3).ValueOrDie();
  PcaOptions options;
  options.k = 3;
  options.epsilon = 64.0;
  const PcaResult central = CentralDpPca(x, options).ValueOrDie();
  EXPECT_GT(central.utility, 0.95 * exact.utility);
  EXPECT_GT(central.sigma, 0.0);
}

TEST(PcaTest, CentralDpUtilityIncreasesWithEpsilon) {
  const Matrix x = TestData();
  PcaOptions options;
  options.k = 3;
  options.epsilon = 0.05;
  const double low = CentralDpPca(x, options).ValueOrDie().utility;
  options.epsilon = 16.0;
  const double high = CentralDpPca(x, options).ValueOrDie().utility;
  EXPECT_GT(high, low);
}

TEST(PcaTest, SqmNearCentralAtLargeGamma) {
  // The paper's headline claim for PCA (Figure 2): SQM with fine
  // quantization matches central DP.
  const Matrix x = TestData();
  PcaOptions options;
  options.k = 3;
  options.epsilon = 4.0;
  options.gamma = 4096.0;
  const PcaResult sqm_result = SqmPca(x, options).ValueOrDie();
  const PcaResult central = CentralDpPca(x, options).ValueOrDie();
  EXPECT_GT(sqm_result.utility, 0.9 * central.utility);
  EXPECT_GT(sqm_result.mu, 0.0);
}

TEST(PcaTest, SqmBeatsLocalDp) {
  const Matrix x = TestData();
  PcaOptions options;
  options.k = 3;
  options.epsilon = 1.0;
  options.gamma = 2048.0;
  const double sqm_utility = SqmPca(x, options).ValueOrDie().utility;
  const double local_utility = LocalDpPca(x, options).ValueOrDie().utility;
  EXPECT_GT(sqm_utility, local_utility);
}

TEST(PcaTest, SqmUtilityImprovesWithGamma) {
  const Matrix x = TestData();
  PcaOptions options;
  options.k = 3;
  options.epsilon = 1.0;
  options.gamma = 4.0;  // Deliberately coarse.
  const double coarse = SqmPca(x, options).ValueOrDie().utility;
  options.gamma = 4096.0;
  const double fine = SqmPca(x, options).ValueOrDie().utility;
  EXPECT_GT(fine, coarse);
}

TEST(PcaTest, BgwBackendMatchesPlaintextRelease) {
  // Small instance: the BGW path must release exactly what the fast path
  // releases given the same seed (one SqmPlan: identical quantization,
  // noise draws and down-scaling).
  SyntheticPcaSpec spec;
  spec.rows = 12;
  spec.cols = 5;
  spec.rank = 2;
  spec.seed = 9;
  const Matrix x = GeneratePcaDataset(spec).features;
  PcaOptions options;
  options.k = 2;
  options.epsilon = 2.0;
  options.gamma = 64.0;
  options.seed = 31;
  options.backend = MpcBackend::kPlaintext;
  const PcaResult fast = SqmPca(x, options).ValueOrDie();
  options.backend = MpcBackend::kBgw;
  const PcaResult mpc = SqmPca(x, options).ValueOrDie();
  EXPECT_EQ(fast.subspace.data(), mpc.subspace.data());
  EXPECT_EQ(fast.utility, mpc.utility);
  EXPECT_GT(mpc.network.messages, 0u);
}

TEST(PcaTest, OptionValidation) {
  const Matrix x = TestData();
  PcaOptions options;
  options.k = 0;
  EXPECT_FALSE(SqmPca(x, options).ok());
  options.k = 100;
  EXPECT_FALSE(CentralDpPca(x, options).ok());
  options.k = 3;
  options.epsilon = -1.0;
  EXPECT_FALSE(LocalDpPca(x, options).ok());
  EXPECT_FALSE(NonPrivatePca(x, 0).ok());
}

TEST(PcaTest, TimingPopulatedForSqm) {
  const Matrix x = TestData();
  PcaOptions options;
  options.k = 2;
  options.epsilon = 1.0;
  const PcaResult result = SqmPca(x, options).ValueOrDie();
  EXPECT_GT(result.timing.TotalSeconds(), 0.0);
  EXPECT_GE(result.timing.noise_injection_seconds, 0.0);
}

}  // namespace
}  // namespace sqm
