// BGW protocol semantics through the engine, one small circuit per gate
// kind: input dealing, local gates (Add, Sub, MulConst, constants), the
// GRR Mul and the open.

#include "mpc/bgw.h"
#include "net/liveness.h"
#include "net/lockstep.h"

#include <gtest/gtest.h>

namespace sqm {
namespace {

using WireId = Circuit::WireId;

/// Declares `count` inputs of `party`.
std::vector<WireId> Inputs(Circuit* circuit, size_t party, size_t count) {
  std::vector<WireId> wires;
  for (size_t i = 0; i < count; ++i) wires.push_back(circuit->AddInput(party));
  return wires;
}

class ProtocolTest : public ::testing::Test {
 protected:
  static constexpr size_t kParties = 5;
  static constexpr size_t kThreshold = 2;

  ProtocolTest()
      : network_(kParties, 0.0),
        engine_(ShamirScheme(kParties, kThreshold), &network_, 99) {}

  /// Evaluates with party 0 inputting `a` and party 1 inputting `b`.
  std::vector<int64_t> Evaluate(const Circuit& circuit,
                                const std::vector<int64_t>& a,
                                const std::vector<int64_t>& b = {}) {
    std::vector<std::vector<int64_t>> inputs(kParties);
    inputs[0] = a;
    inputs[1] = b;
    return engine_.Evaluate(circuit, inputs).ValueOrDie();
  }

  /// out[i] = op(a[i], b[i]) for party 0's a and party 1's b.
  template <typename Op>
  std::vector<int64_t> Elementwise(const std::vector<int64_t>& a,
                                   const std::vector<int64_t>& b, Op op) {
    Circuit circuit;
    const std::vector<WireId> x = Inputs(&circuit, 0, a.size());
    const std::vector<WireId> y = Inputs(&circuit, 1, b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      circuit.MarkOutput(op(&circuit, x[i], y[i]));
    }
    return Evaluate(circuit, a, b);
  }

  LockstepTransport network_;
  BgwEngine engine_;
};

TEST_F(ProtocolTest, ShareAndOpenRoundTrip) {
  const std::vector<int64_t> values{7, -3, 0, 100000};
  Circuit circuit;
  for (WireId wire : Inputs(&circuit, 0, values.size())) {
    circuit.MarkOutput(wire);
  }
  EXPECT_EQ(Evaluate(circuit, values), values);
}

TEST_F(ProtocolTest, SharesHideTheSecretFromBelowThresholdCoalitions) {
  // With threshold 2, any 2 shares are uniform. Coarse check: repeated
  // sharings of the same value produce different share pairs.
  const std::vector<Field::Element> secret = Field::EncodeVector({5});
  const SharedVector s1 = engine_.ShareFrom(0, secret, 1).ValueOrDie();
  const SharedVector s2 = engine_.ShareFrom(0, secret, 1).ValueOrDie();
  EXPECT_NE(s1.shares(1)[0], s2.shares(1)[0]);
}

TEST_F(ProtocolTest, AddIsExact) {
  EXPECT_EQ(Elementwise({1, 2, 3}, {10, -20, 30},
                        [](Circuit* c, WireId x, WireId y) {
                          return c->AddAdd(x, y);
                        }),
            (std::vector<int64_t>{11, -18, 33}));
}

TEST_F(ProtocolTest, SubIsExact) {
  EXPECT_EQ(Elementwise({5, 5}, {2, 9},
                        [](Circuit* c, WireId x, WireId y) {
                          return c->AddSub(x, y);
                        }),
            (std::vector<int64_t>{3, -4}));
}

TEST_F(ProtocolTest, ShapeMismatchIsRejected) {
  // Inputs must match the circuit's declared input counts, one vector per
  // hosted party.
  Circuit circuit;
  const std::vector<WireId> x = Inputs(&circuit, 0, 2);
  const std::vector<WireId> y = Inputs(&circuit, 1, 2);
  circuit.MarkOutput(circuit.AddMul(x[0], y[0]));
  std::vector<std::vector<int64_t>> inputs(kParties);
  inputs[0] = {1, 2};
  inputs[1] = {1};
  const auto short_input = engine_.Evaluate(circuit, inputs);
  ASSERT_FALSE(short_input.ok());
  EXPECT_EQ(short_input.status().code(), StatusCode::kInvalidArgument);
  inputs[1] = {1, 2};
  inputs.pop_back();
  EXPECT_FALSE(engine_.Evaluate(circuit, inputs).ok());
  EXPECT_EQ(network_.stats().messages, 0u);  // Refused before any traffic.
}

TEST_F(ProtocolTest, ScaleConstIsExact) {
  Circuit circuit;
  for (WireId wire : Inputs(&circuit, 0, 2)) {
    circuit.MarkOutput(circuit.AddMulConst(wire, Field::Encode(7)));
  }
  EXPECT_EQ(Evaluate(circuit, {3, -4}), (std::vector<int64_t>{21, -28}));
}

TEST_F(ProtocolTest, AddPublicIsExact) {
  Circuit circuit;
  const std::vector<WireId> x = Inputs(&circuit, 0, 2);
  circuit.MarkOutput(
      circuit.AddAdd(x[0], circuit.AddConstant(Field::Encode(100))));
  circuit.MarkOutput(
      circuit.AddAdd(x[1], circuit.AddConstant(Field::Encode(-1))));
  EXPECT_EQ(Evaluate(circuit, {3, 4}), (std::vector<int64_t>{103, 3}));
}

TEST_F(ProtocolTest, MulIsExactIncludingNegatives) {
  EXPECT_EQ(Elementwise({3, -4, 0, 1000}, {5, 6, 9, -1000},
                        [](Circuit* c, WireId x, WireId y) {
                          return c->AddMul(x, y);
                        }),
            (std::vector<int64_t>{15, -24, 0, -1000000}));
}

TEST_F(ProtocolTest, MulLeavesLvalueOperandsUnchanged) {
  // A Mul level multiplies gathered copies of its operand wires in place;
  // the operands' rows of the share table must come through untouched.
  Circuit circuit;
  const std::vector<WireId> x = Inputs(&circuit, 0, 3);
  const std::vector<WireId> y = Inputs(&circuit, 1, 3);
  for (size_t i = 0; i < 3; ++i) circuit.MarkOutput(circuit.AddMul(x[i], y[i]));
  std::vector<std::vector<int64_t>> inputs(kParties);
  inputs[0] = {3, -4, 7};
  inputs[1] = {5, 6, -2};
  BgwCheckpoint checkpoint;
  const SharedVector product =
      engine_.EvaluateToShares(circuit, inputs, &checkpoint).ValueOrDie();
  SharedVector operands(kParties, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t p = 0; p < kParties; ++p) {
      operands.shares(p)[i] = checkpoint.wire_shares[i * kParties + p];
    }
  }
  EXPECT_EQ(engine_.OpenOutputs(operands).ValueOrDie(),
            (std::vector<int64_t>{3, -4, 7, 5, 6, -2}));
  EXPECT_EQ(engine_.OpenOutputs(product).ValueOrDie(),
            (std::vector<int64_t>{15, -24, -14}));
}

TEST(ProtocolDropoutTest, DeadPartyRowIsZeroedAndSurvivorsOpenTheProduct) {
  // n = 5, t = 1: 2t+1 = 3 dealers suffice, so one dead party degrades
  // the Mul instead of failing it.
  LockstepTransport network(5, 0.0);
  BgwEngine engine(ShamirScheme(5, 1), &network, 21);
  Circuit circuit;
  const std::vector<WireId> x = Inputs(&circuit, 0, 3);
  const std::vector<WireId> y = Inputs(&circuit, 1, 3);
  for (size_t i = 0; i < 3; ++i) circuit.MarkOutput(circuit.AddMul(x[i], y[i]));
  LivenessTracker tracker(5);
  tracker.MarkDead(3);
  engine.set_liveness(&tracker);
  const SharedVector product =
      engine.EvaluateToShares(circuit, {{6, -9, 0}, {7, 11, 5}, {}, {}, {}})
          .ValueOrDie();
  EXPECT_EQ(product.shares(3), (std::vector<Field::Element>(3, 0)));
  EXPECT_EQ(engine.OpenOutputs(product).ValueOrDie(),
            (std::vector<int64_t>{42, -99, 0}));
}

TEST_F(ProtocolTest, MulCostsOneRoundAndQuadraticMessages) {
  Circuit circuit;
  const std::vector<WireId> x = Inputs(&circuit, 0, 3);
  const std::vector<WireId> y = Inputs(&circuit, 1, 3);
  for (size_t i = 0; i < 3; ++i) circuit.MarkOutput(circuit.AddMul(x[i], y[i]));
  NetworkStats before;
  engine_.set_mul_level_hook([&](size_t) { before = network_.stats(); });
  std::vector<std::vector<int64_t>> inputs(kParties);
  inputs[0] = {1, 2, 3};
  inputs[1] = {4, 5, 6};
  (void)engine_.EvaluateToShares(circuit, inputs).ValueOrDie();
  const NetworkStats after = network_.stats();
  EXPECT_EQ(after.rounds - before.rounds, 1u);
  // n*(n-1) pairwise messages, each batching all 3 elements.
  EXPECT_EQ(after.messages - before.messages, kParties * (kParties - 1));
  EXPECT_EQ(after.field_elements - before.field_elements,
            kParties * (kParties - 1) * 3);
}

TEST_F(ProtocolTest, RepeatedMultiplicationStaysReconstructible) {
  // Degree reduction must keep the sharing degree at t so products chain:
  // five squarings, one Mul level each.
  Circuit circuit;
  WireId x = circuit.AddInput(0);
  for (int i = 0; i < 5; ++i) x = circuit.AddMul(x, x);
  circuit.MarkOutput(x);
  EXPECT_EQ(Evaluate(circuit, {3})[0], int64_t{1853020188851841});  // 3^32.
  EXPECT_EQ(engine_.last_report().mul_rounds, 5u);
}

TEST_F(ProtocolTest, SumElementsIsExact) {
  Circuit circuit;
  const std::vector<WireId> x = Inputs(&circuit, 2, 5);
  WireId sum = x[0];
  for (size_t i = 1; i < x.size(); ++i) sum = circuit.AddAdd(sum, x[i]);
  circuit.MarkOutput(sum);
  std::vector<std::vector<int64_t>> inputs(kParties);
  inputs[2] = {1, -2, 3, -4, 5};
  EXPECT_EQ(engine_.Evaluate(circuit, inputs).ValueOrDie(),
            (std::vector<int64_t>{3}));
}

TEST_F(ProtocolTest, InnerProductIsExact) {
  Circuit circuit;
  const std::vector<WireId> x = Inputs(&circuit, 0, 3);
  const std::vector<WireId> y = Inputs(&circuit, 1, 3);
  WireId ip = circuit.AddMul(x[0], y[0]);
  for (size_t i = 1; i < 3; ++i) {
    ip = circuit.AddAdd(ip, circuit.AddMul(x[i], y[i]));
  }
  circuit.MarkOutput(ip);
  EXPECT_EQ(Evaluate(circuit, {1, 2, 3}, {4, 5, 6}),
            (std::vector<int64_t>{32}));
}

TEST_F(ProtocolTest, SharePublicBehavesAsDegreeZeroSharing) {
  // A public constant is a degree-0 sharing; multiplying it by a private
  // degree-t sharing goes through the same GRR Mul.
  Circuit circuit;
  const WireId nine = circuit.AddConstant(Field::Encode(9));
  for (WireId wire : Inputs(&circuit, 0, 2)) {
    circuit.MarkOutput(circuit.AddMul(nine, wire));
  }
  EXPECT_EQ(Evaluate(circuit, {2, -3}), (std::vector<int64_t>{18, -27}));
  EXPECT_EQ(engine_.last_report().mul_rounds, 1u);
}

TEST(ProtocolThreePartyTest, MinimalConfigurationWorks) {
  // n = 3, t = 1 is the smallest BGW configuration; 2t+1 = 3 = n.
  LockstepTransport network(3, 0.0);
  BgwEngine engine(ShamirScheme(3, 1), &network, 7);
  Circuit circuit;
  circuit.MarkOutput(circuit.AddMul(circuit.AddInput(0), circuit.AddInput(2)));
  EXPECT_EQ(engine.Evaluate(circuit, {{6}, {}, {7}}).ValueOrDie()[0], 42);
}

}  // namespace
}  // namespace sqm
