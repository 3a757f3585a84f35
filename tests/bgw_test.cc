#include "mpc/bgw.h"
#include "net/lockstep.h"

#include <gtest/gtest.h>

namespace sqm {
namespace {

class BgwTest : public ::testing::Test {
 protected:
  static constexpr size_t kParties = 5;
  static constexpr size_t kThreshold = 2;

  BgwTest()
      : network_(kParties, 0.0),
        engine_(ShamirScheme(kParties, kThreshold), &network_, 1234) {}

  LockstepTransport network_;
  BgwEngine engine_;
};

TEST_F(BgwTest, EvaluatesLinearCircuit) {
  // out = 2*a + b - c with a, b, c owned by different parties.
  Circuit c;
  const auto a = c.AddInput(0);
  const auto b = c.AddInput(1);
  const auto cc = c.AddInput(2);
  const auto two_a = c.AddMulConst(a, 2);
  c.MarkOutput(c.AddSub(c.AddAdd(two_a, b), cc));

  const auto out =
      engine_.Evaluate(c, {{10}, {5}, {3}, {}, {}}).ValueOrDie();
  EXPECT_EQ(out, (std::vector<int64_t>{22}));
}

TEST_F(BgwTest, EvaluatesProductChain) {
  // out = a * b * c (depth 2).
  Circuit c;
  const auto a = c.AddInput(0);
  const auto b = c.AddInput(1);
  const auto cc = c.AddInput(2);
  c.MarkOutput(c.AddMul(c.AddMul(a, b), cc));
  const auto out =
      engine_.Evaluate(c, {{-3}, {4}, {5}, {}, {}}).ValueOrDie();
  EXPECT_EQ(out, (std::vector<int64_t>{-60}));
  EXPECT_EQ(engine_.last_report().mul_rounds, 2u);
  EXPECT_EQ(engine_.last_report().multiplications, 2u);
}

TEST_F(BgwTest, BatchesSameDepthMultiplications) {
  // Four independent products all at depth 1 -> one mul round.
  Circuit c;
  std::vector<Circuit::WireId> inputs;
  for (size_t j = 0; j < 4; ++j) inputs.push_back(c.AddInput(j));
  for (size_t j = 0; j < 4; ++j) {
    c.MarkOutput(c.AddMul(inputs[j], inputs[(j + 1) % 4]));
  }
  const auto out =
      engine_.Evaluate(c, {{2}, {3}, {5}, {7}, {}}).ValueOrDie();
  EXPECT_EQ(out, (std::vector<int64_t>{6, 15, 35, 14}));
  EXPECT_EQ(engine_.last_report().mul_rounds, 1u);
}

TEST_F(BgwTest, ConstantsAndPolynomials) {
  // out = 3*x^2 + 2*x + 7 for x = -4 -> 48 - 8 + 7 = 47.
  Circuit c;
  const auto x = c.AddInput(0);
  const auto x2 = c.AddMul(x, x);
  const auto term2 = c.AddMulConst(x2, 3);
  const auto term1 = c.AddMulConst(x, 2);
  const auto seven = c.AddConstant(7);
  c.MarkOutput(c.AddAdd(c.AddAdd(term2, term1), seven));
  const auto out = engine_.Evaluate(c, {{-4}, {}, {}, {}, {}}).ValueOrDie();
  EXPECT_EQ(out, (std::vector<int64_t>{47}));
}

TEST_F(BgwTest, NegativeConstantsViaFieldEncoding) {
  Circuit c;
  const auto x = c.AddInput(0);
  c.MarkOutput(c.AddMulConst(x, Field::Encode(-5)));
  const auto out = engine_.Evaluate(c, {{7}, {}, {}, {}, {}}).ValueOrDie();
  EXPECT_EQ(out, (std::vector<int64_t>{-35}));
}

TEST_F(BgwTest, RejectsWrongInputCount) {
  Circuit c;
  c.MarkOutput(c.AddInput(0));
  EXPECT_FALSE(engine_.Evaluate(c, {{}, {}, {}, {}, {}}).ok());
  EXPECT_FALSE(engine_.Evaluate(c, {{1, 2}, {}, {}, {}, {}}).ok());
  EXPECT_FALSE(engine_.Evaluate(c, {{1}}).ok());
}

TEST_F(BgwTest, MultipleInputsPerPartyConsumeInOrder)
{
  Circuit c;
  const auto a0 = c.AddInput(0);
  const auto a1 = c.AddInput(0);
  c.MarkOutput(c.AddSub(a0, a1));
  const auto out =
      engine_.Evaluate(c, {{10, 4}, {}, {}, {}, {}}).ValueOrDie();
  EXPECT_EQ(out, (std::vector<int64_t>{6}));
}

TEST_F(BgwTest, CheckpointOfAnotherCircuitIsRejected) {
  // Circuit A's completed checkpoint holds A's share table; resuming
  // circuit B (more wires) from it must fail cleanly, not abort.
  Circuit a;
  const auto x = a.AddInput(0);
  a.MarkOutput(a.AddMul(x, x));
  BgwCheckpoint checkpoint;
  ASSERT_TRUE(
      engine_.EvaluateToShares(a, {{3}, {}, {}, {}, {}}, &checkpoint).ok());
  ASSERT_TRUE(checkpoint.valid);

  Circuit b;
  const auto y = b.AddInput(0);
  b.MarkOutput(b.AddMul(b.AddAdd(y, y), y));
  const Result<SharedVector> resumed =
      engine_.EvaluateToShares(b, {{3}, {}, {}, {}, {}}, &checkpoint);
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
      << resumed.status().ToString();
}

TEST(BgwThreePartyTest, InnerProductAcrossParties) {
  // <x, y> for 3-vectors owned by parties 0 and 1.
  LockstepTransport network(3, 0.0);
  BgwEngine engine(ShamirScheme(3, 1), &network, 5);
  Circuit c;
  std::vector<Circuit::WireId> x, y;
  for (int i = 0; i < 3; ++i) x.push_back(c.AddInput(0));
  for (int i = 0; i < 3; ++i) y.push_back(c.AddInput(1));
  Circuit::WireId acc = c.AddConstant(0);
  for (int i = 0; i < 3; ++i) acc = c.AddAdd(acc, c.AddMul(x[i], y[i]));
  c.MarkOutput(acc);
  const auto out =
      engine.Evaluate(c, {{1, 2, 3}, {4, 5, 6}, {}}).ValueOrDie();
  EXPECT_EQ(out, (std::vector<int64_t>{32}));
}

TEST(BgwLatencyTest, SimulatedTimeTracksRounds) {
  LockstepTransport network(3, 0.1);
  BgwEngine engine(ShamirScheme(3, 1), &network, 5);
  Circuit c;
  const auto a = c.AddInput(0);
  const auto b = c.AddInput(1);
  c.MarkOutput(c.AddMul(a, b));
  (void)engine.Evaluate(c, {{2}, {3}, {}}).ValueOrDie();
  // Rounds: input sharing (2 contributing parties) + 1 mul + 1 open = 4.
  EXPECT_EQ(network.stats().rounds, 4u);
  EXPECT_DOUBLE_EQ(network.SimulatedSeconds(), 0.4);
}

}  // namespace
}  // namespace sqm
