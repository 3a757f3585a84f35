#include "mpc/protocol.h"
#include "net/liveness.h"
#include "net/lockstep.h"

#include <gtest/gtest.h>

namespace sqm {
namespace {

class ProtocolTest : public ::testing::Test {
 protected:
  static constexpr size_t kParties = 5;
  static constexpr size_t kThreshold = 2;

  ProtocolTest()
      : network_(kParties, 0.0),
        protocol_(ShamirScheme(kParties, kThreshold), &network_, 99) {}

  LockstepTransport network_;
  BgwProtocol protocol_;
};

TEST_F(ProtocolTest, ShareAndOpenRoundTrip) {
  const std::vector<int64_t> values{7, -3, 0, 100000};
  const SharedVector shared =
      protocol_.ShareFromParty(0, Field::EncodeVector(values)).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(shared).ValueOrDie(), values);
}

TEST_F(ProtocolTest, SharesHideTheSecretFromBelowThresholdCoalitions) {
  // With threshold 2, any 2 shares are uniform. Coarse check: repeated
  // sharings of the same value produce different share pairs.
  const std::vector<int64_t> secret{5};
  const SharedVector s1 =
      protocol_.ShareFromParty(0, Field::EncodeVector(secret)).ValueOrDie();
  const SharedVector s2 =
      protocol_.ShareFromParty(0, Field::EncodeVector(secret)).ValueOrDie();
  EXPECT_NE(s1.shares(1)[0], s2.shares(1)[0]);
}

TEST_F(ProtocolTest, AddIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({1, 2, 3})).ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({10, -20, 30}))
          .ValueOrDie();
  const SharedVector sum = protocol_.Add(a, b).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(sum).ValueOrDie(),
            (std::vector<int64_t>{11, -18, 33}));
}

TEST_F(ProtocolTest, SubIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({5, 5})).ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({2, 9})).ValueOrDie();
  const SharedVector diff = protocol_.Sub(a, b).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(diff).ValueOrDie(),
            (std::vector<int64_t>{3, -4}));
}

TEST_F(ProtocolTest, ShapeMismatchIsRejected) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({1, 2})).ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({1})).ValueOrDie();
  EXPECT_FALSE(protocol_.Add(a, b).ok());
  EXPECT_FALSE(protocol_.Sub(a, b).ok());
  EXPECT_FALSE(protocol_.Mul(a, b).ok());
}

TEST_F(ProtocolTest, ScaleConstIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({3, -4})).ValueOrDie();
  const SharedVector scaled =
      protocol_.ScaleConst(a, Field::Encode(7));
  EXPECT_EQ(protocol_.OpenSigned(scaled).ValueOrDie(),
            (std::vector<int64_t>{21, -28}));
}

TEST_F(ProtocolTest, AddPublicIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({3, 4})).ValueOrDie();
  const SharedVector shifted =
      protocol_.AddPublic(a, Field::EncodeVector({100, -1})).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(shifted).ValueOrDie(),
            (std::vector<int64_t>{103, 3}));
}

TEST_F(ProtocolTest, MulIsExactIncludingNegatives) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({3, -4, 0, 1000}))
          .ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({5, 6, 9, -1000}))
          .ValueOrDie();
  const SharedVector product = protocol_.Mul(a, b).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(product).ValueOrDie(),
            (std::vector<int64_t>{15, -24, 0, -1000000}));
}

TEST_F(ProtocolTest, MulLeavesLvalueOperandsUnchanged) {
  // Mul takes its operands by value and works in place in them; an lvalue
  // caller's vectors must come through as copies, untouched.
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({3, -4, 7})).ValueOrDie();
  SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({5, 6, -2})).ValueOrDie();
  const SharedVector a_before = a;
  const SharedVector b_before = b;
  const SharedVector product = protocol_.Mul(a, b).ValueOrDie();
  for (size_t j = 0; j < kParties; ++j) {
    EXPECT_EQ(a.shares(j), a_before.shares(j)) << "party " << j;
    EXPECT_EQ(b.shares(j), b_before.shares(j)) << "party " << j;
  }
  EXPECT_EQ(protocol_.OpenSigned(product).ValueOrDie(),
            (std::vector<int64_t>{15, -24, -14}));
}

TEST(ProtocolDropoutTest, DeadPartyRowIsZeroedAndSurvivorsOpenTheProduct) {
  // n = 5, t = 1: 2t+1 = 3 dealers suffice, so one dead party degrades
  // the Mul instead of failing it.
  LockstepTransport network(5, 0.0);
  BgwProtocol protocol(ShamirScheme(5, 1), &network, 21);
  const SharedVector a =
      protocol.ShareFromParty(0, Field::EncodeVector({6, -9, 0})).ValueOrDie();
  const SharedVector b =
      protocol.ShareFromParty(1, Field::EncodeVector({7, 11, 5})).ValueOrDie();
  LivenessTracker tracker(5);
  tracker.MarkDead(3);
  protocol.set_liveness(&tracker);
  const SharedVector product = protocol.Mul(a, b).ValueOrDie();
  EXPECT_EQ(product.shares(3), (std::vector<Field::Element>(3, 0)));
  EXPECT_EQ(protocol.OpenSigned(product).ValueOrDie(),
            (std::vector<int64_t>{42, -99, 0}));
}

TEST_F(ProtocolTest, MulCostsOneRoundAndQuadraticMessages) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({1, 2, 3})).ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({4, 5, 6})).ValueOrDie();
  const NetworkStats before = network_.stats();
  (void)protocol_.Mul(a, b).ValueOrDie();
  const NetworkStats after = network_.stats();
  EXPECT_EQ(after.rounds - before.rounds, 1u);
  // n*(n-1) pairwise messages, each batching all 3 elements.
  EXPECT_EQ(after.messages - before.messages, kParties * (kParties - 1));
  EXPECT_EQ(after.field_elements - before.field_elements,
            kParties * (kParties - 1) * 3);
}

TEST_F(ProtocolTest, RepeatedMultiplicationStaysReconstructible) {
  // Degree reduction must keep the sharing degree at t so products chain.
  SharedVector x =
      protocol_.ShareFromParty(0, Field::EncodeVector({3})).ValueOrDie();
  int64_t expected = 3;
  for (int i = 0; i < 5; ++i) {
    x = protocol_.Mul(x, x).ValueOrDie();
    expected *= expected;
    if (expected > 1000000000) break;  // Stay far from field capacity.
  }
  EXPECT_EQ(protocol_.OpenSigned(x).ValueOrDie()[0], expected);
}

TEST_F(ProtocolTest, SumElementsIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(2, Field::EncodeVector({1, -2, 3, -4, 5}))
          .ValueOrDie();
  const SharedVector sum = protocol_.SumElements(a);
  EXPECT_EQ(protocol_.OpenSigned(sum).ValueOrDie(), (std::vector<int64_t>{3}));
}

TEST_F(ProtocolTest, InnerProductIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({1, 2, 3})).ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({4, 5, 6})).ValueOrDie();
  const SharedVector ip = protocol_.InnerProduct(a, b).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(ip).ValueOrDie(), (std::vector<int64_t>{32}));
}

TEST_F(ProtocolTest, SharePublicBehavesAsDegreeZeroSharing) {
  const SharedVector pub =
      protocol_.SharePublic(Field::EncodeVector({9, 9}));
  const SharedVector priv =
      protocol_.ShareFromParty(0, Field::EncodeVector({2, -3})).ValueOrDie();
  const SharedVector product = protocol_.Mul(pub, priv).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(product).ValueOrDie(),
            (std::vector<int64_t>{18, -27}));
}

TEST(ProtocolThreePartyTest, MinimalConfigurationWorks) {
  // n = 3, t = 1 is the smallest BGW configuration; 2t+1 = 3 = n.
  LockstepTransport network(3, 0.0);
  BgwProtocol protocol(ShamirScheme(3, 1), &network, 7);
  const SharedVector a =
      protocol.ShareFromParty(0, Field::EncodeVector({6})).ValueOrDie();
  const SharedVector b =
      protocol.ShareFromParty(2, Field::EncodeVector({7})).ValueOrDie();
  const SharedVector product = protocol.Mul(a, b).ValueOrDie();
  EXPECT_EQ(protocol.OpenSigned(product).ValueOrDie()[0], 42);
}

}  // namespace
}  // namespace sqm
