#include "mpc/circuit.h"

#include <gtest/gtest.h>

namespace sqm {
namespace {

TEST(CircuitTest, InputBookkeeping) {
  // Interleaved owners still get dense per-party input indices.
  Circuit c;
  const size_t owners[] = {0, 1, 0, 2, 1, 0};
  const size_t expected_index[] = {0, 0, 1, 0, 1, 2};
  for (size_t i = 0; i < 6; ++i) {
    const Circuit::Gate& gate = c.gates()[c.AddInput(owners[i])];
    EXPECT_EQ(gate.kind, Circuit::GateKind::kInput);
    EXPECT_EQ(gate.owner(), owners[i]);
    EXPECT_EQ(gate.input_index(), expected_index[i]) << "input " << i;
  }
  EXPECT_EQ(c.NumInputsForParty(0), 3u);
  EXPECT_EQ(c.NumInputsForParty(1), 2u);
  EXPECT_EQ(c.NumInputsForParty(2), 1u);
  // Parties that never declared an input, below and above the last owner.
  Circuit sparse;
  sparse.AddInput(2);
  EXPECT_EQ(sparse.NumInputsForParty(0), 0u);
  EXPECT_EQ(sparse.NumInputsForParty(5), 0u);
}

TEST(CircuitTest, ConstantsRoundTrip) {
  Circuit c;
  const Field::Element big = Field::kModulus - 1;
  const auto a = c.AddInput(0);
  const auto k = c.AddConstant(big);
  const auto scaled = c.AddMulConst(a, 42);
  const auto k2 = c.AddConstant(7);
  EXPECT_EQ(c.gates()[k].kind, Circuit::GateKind::kConstant);
  EXPECT_EQ(c.constant(c.gates()[k]), big);
  EXPECT_EQ(c.gates()[scaled].kind, Circuit::GateKind::kMulConst);
  EXPECT_EQ(c.gates()[scaled].lhs, a);
  EXPECT_EQ(c.constant(c.gates()[scaled]), 42u);
  EXPECT_EQ(c.constant(c.gates()[k2]), 7u);
}

TEST(CircuitTest, GateCountsAndKinds) {
  Circuit c;
  const auto a = c.AddInput(0);
  const auto b = c.AddInput(1);
  const auto sum = c.AddAdd(a, b);
  const auto product = c.AddMul(a, b);
  const auto scaled = c.AddMulConst(product, 3);
  c.MarkOutput(sum);
  c.MarkOutput(scaled);
  EXPECT_EQ(c.num_gates(), 5u);
  EXPECT_EQ(c.num_multiplications(), 1u);
  EXPECT_EQ(c.outputs().size(), 2u);
}

TEST(CircuitTest, MultiplicativeDepth) {
  Circuit c;
  const auto a = c.AddInput(0);
  const auto b = c.AddInput(1);
  EXPECT_EQ(c.MultiplicativeDepth(), 0u);
  const auto ab = c.AddMul(a, b);
  EXPECT_EQ(c.MultiplicativeDepth(), 1u);
  const auto ab2 = c.AddMul(ab, ab);
  const auto sum = c.AddAdd(ab2, a);  // Add does not increase depth.
  const auto scaled = c.AddMulConst(ab, 3);  // Neither does MulConst.
  c.MarkOutput(sum);
  c.MarkOutput(scaled);
  EXPECT_EQ(c.MultiplicativeDepth(), 2u);
  EXPECT_EQ(c.GateDepths(), std::vector<uint32_t>({0, 0, 1, 2, 2, 1}));
}

TEST(CircuitTest, ValidateAcceptsWellFormed) {
  Circuit c;
  const auto a = c.AddInput(0);
  const auto k = c.AddConstant(5);
  c.MarkOutput(c.AddMul(a, k));
  EXPECT_TRUE(c.Validate(2).ok());
}

TEST(CircuitTest, ValidateRejectsNoOutputs) {
  Circuit c;
  c.AddInput(0);
  EXPECT_FALSE(c.Validate(2).ok());
}

TEST(CircuitTest, ValidateRejectsForeignParty) {
  Circuit c;
  c.MarkOutput(c.AddInput(7));
  const Status status = c.Validate(2);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("party 7"), std::string::npos);
  EXPECT_TRUE(c.Validate(8).ok());
}

TEST(CircuitTest, SummaryMentionsCounts) {
  Circuit c;
  const auto a = c.AddInput(0);
  c.MarkOutput(c.AddMul(a, a));
  const std::string summary = c.Summary();
  EXPECT_NE(summary.find("mul=1"), std::string::npos);
  EXPECT_NE(summary.find("depth=1"), std::string::npos);
}

}  // namespace
}  // namespace sqm
