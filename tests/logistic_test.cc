#include "vfl/logistic.h"

#include <gtest/gtest.h>

#include "vfl/dataset.h"
#include "vfl/synthetic.h"

namespace sqm {
namespace {

TrainTestSplit EasyTask(size_t rows = 1500, size_t cols = 8) {
  SyntheticLrSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.margin = 2.5;
  spec.label_noise = 0.02;
  spec.seed = 3;
  return SplitTrainTest(GenerateLrDataset(spec), 0.7, 1).ValueOrDie();
}

LogisticOptions FastOptions() {
  LogisticOptions options;
  options.epsilon = 4.0;
  options.sample_rate = 0.05;
  options.rounds = 60;
  options.learning_rate = 2.0;
  options.gamma = 1024.0;
  return options;
}

TEST(LogisticGradientPolynomialTest, MatchesNumericGradient) {
  // The polynomial must evaluate to (sigma_taylor(<w,x>) - y) * x.
  const std::vector<double> w{0.3, -0.2, 0.5};
  const PolynomialVector f = BuildLogisticGradientPolynomial(w);
  EXPECT_EQ(f.output_dim(), 3u);
  EXPECT_EQ(f.Degree(), 2u);

  const std::vector<double> x{0.1, 0.4, -0.3};
  for (int y : {0, 1}) {
    const std::vector<double> record{x[0], x[1], x[2],
                                     static_cast<double>(y)};
    const std::vector<double> grad = f.Evaluate(record);
    double u = 0.0;
    for (size_t j = 0; j < 3; ++j) u += w[j] * x[j];
    const double err = (0.5 + 0.25 * u) - y;
    for (size_t t = 0; t < 3; ++t) {
      EXPECT_NEAR(grad[t], err * x[t], 1e-12) << "t=" << t << " y=" << y;
    }
  }
}

TEST(LogisticTest, NonPrivateLearnsEasyTask) {
  const TrainTestSplit split = EasyTask();
  LogisticOptions options = FastOptions();
  const LogisticResult result =
      TrainNonPrivateLogistic(split.train, split.test, options)
          .ValueOrDie();
  EXPECT_GT(result.test_accuracy, 0.85);
}

TEST(LogisticTest, DpSgdLearnsWithGenerousBudget) {
  const TrainTestSplit split = EasyTask();
  LogisticOptions options = FastOptions();
  const LogisticResult result =
      TrainDpSgd(split.train, split.test, options).ValueOrDie();
  EXPECT_GT(result.test_accuracy, 0.75);
  EXPECT_GT(result.sigma, 0.0);
}

TEST(LogisticTest, SqmLearnsWithGenerousBudget) {
  const TrainTestSplit split = EasyTask(1200, 6);
  LogisticOptions options = FastOptions();
  const LogisticResult result =
      TrainSqmLogistic(split.train, split.test, options).ValueOrDie();
  EXPECT_GT(result.test_accuracy, 0.75);
  EXPECT_GT(result.mu, 0.0);
}

TEST(LogisticTest, SqmNearDpSgdAtLargeGamma) {
  // The paper's Figure 3 claim: fine quantization closes the gap to the
  // centralized mechanism.
  const TrainTestSplit split = EasyTask(1200, 6);
  LogisticOptions options = FastOptions();
  options.gamma = 8192.0;
  const LogisticResult sqm_result =
      TrainSqmLogistic(split.train, split.test, options).ValueOrDie();
  const LogisticResult central =
      TrainDpSgd(split.train, split.test, options).ValueOrDie();
  EXPECT_GT(sqm_result.test_accuracy, central.test_accuracy - 0.1);
}

TEST(LogisticTest, SqmBeatsLocalDpBaseline) {
  const TrainTestSplit split = EasyTask(1200, 6);
  LogisticOptions options = FastOptions();
  options.epsilon = 1.0;
  const LogisticResult sqm_result =
      TrainSqmLogistic(split.train, split.test, options).ValueOrDie();
  const LogisticResult local =
      TrainLocalDpLogistic(split.train, split.test, options).ValueOrDie();
  EXPECT_GE(sqm_result.test_accuracy, local.test_accuracy - 0.02);
}

TEST(LogisticTest, ApproxPolyCloseToDpSgd) {
  // Figure 5: the polynomial approximation costs almost nothing.
  const TrainTestSplit split = EasyTask();
  LogisticOptions options = FastOptions();
  const LogisticResult exact =
      TrainDpSgd(split.train, split.test, options).ValueOrDie();
  const LogisticResult approx =
      TrainApproxPoly(split.train, split.test, options).ValueOrDie();
  EXPECT_NEAR(approx.test_accuracy, exact.test_accuracy, 0.1);
}

TEST(LogisticTest, HigherTaylorOrderSupportedByApproxPoly) {
  const TrainTestSplit split = EasyTask(800, 6);
  LogisticOptions options = FastOptions();
  options.taylor_order = 3;
  EXPECT_TRUE(TrainApproxPoly(split.train, split.test, options).ok());
  options.taylor_order = 2;
  EXPECT_FALSE(TrainApproxPoly(split.train, split.test, options).ok());
}

TEST(LogisticTest, SqmRejectsHigherTaylorOrder) {
  const TrainTestSplit split = EasyTask(400, 4);
  LogisticOptions options = FastOptions();
  options.taylor_order = 3;
  EXPECT_EQ(TrainSqmLogistic(split.train, split.test, options)
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST(LogisticTest, ValidatesInputs) {
  const TrainTestSplit split = EasyTask(400, 4);
  LogisticOptions options = FastOptions();
  options.rounds = 0;
  EXPECT_FALSE(TrainDpSgd(split.train, split.test, options).ok());
  options = FastOptions();
  options.sample_rate = 0.0;
  EXPECT_FALSE(TrainSqmLogistic(split.train, split.test, options).ok());
  options = FastOptions();
  VflDataset unlabelled = split.train;
  unlabelled.labels.clear();
  EXPECT_FALSE(TrainDpSgd(unlabelled, split.test, options).ok());
}

TEST(LogisticTest, WeightsAreClipped) {
  const TrainTestSplit split = EasyTask(400, 4);
  LogisticOptions options = FastOptions();
  options.weight_clip = 1.0;
  const LogisticResult result =
      TrainNonPrivateLogistic(split.train, split.test, options)
          .ValueOrDie();
  double norm_sq = 0.0;
  for (double w : result.weights) norm_sq += w * w;
  EXPECT_LE(norm_sq, 1.0 + 1e-9);
}

}  // namespace
}  // namespace sqm
