#include "mpc/beaver.h"

#include <gtest/gtest.h>

#include "mpc/protocol.h"
#include "net/lockstep.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

class BeaverTest : public ::testing::Test {
 protected:
  static constexpr size_t kParties = 5;
  static constexpr size_t kThreshold = 2;

  BeaverTest()
      : network_(kParties, 0.0),
        protocol_(ShamirScheme(kParties, kThreshold), &network_, 21),
        pool_(ShamirScheme(kParties, kThreshold), 22, 16) {
    protocol_.set_beaver_pool(&pool_);
  }

  SharedVector Share(size_t party, const std::vector<int64_t>& values) {
    return protocol_.ShareFromParty(party, Field::EncodeVector(values))
        .ValueOrDie();
  }

  LockstepTransport network_;
  BgwProtocol protocol_;
  BeaverTriplePool pool_;
};

TEST_F(BeaverTest, DealtTriplesAreConsistent) {
  ShamirScheme scheme(kParties, kThreshold);
  BeaverTriplePool pool(scheme, 3, 50);
  const BeaverTriplePool::TripleBatch batch = pool.Take(50).ValueOrDie();
  std::vector<Field::Element> a_shares(kParties);
  std::vector<Field::Element> b_shares(kParties);
  std::vector<Field::Element> c_shares(kParties);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < kParties; ++j) {
      a_shares[j] = batch.a.shares(j)[i];
      b_shares[j] = batch.b.shares(j)[i];
      c_shares[j] = batch.c.shares(j)[i];
    }
    const Field::Element a = scheme.ReconstructChecked(a_shares).ValueOrDie();
    const Field::Element b = scheme.ReconstructChecked(b_shares).ValueOrDie();
    const Field::Element c = scheme.ReconstructChecked(c_shares).ValueOrDie();
    EXPECT_EQ(Field::Mul(a, b), c);
  }
}

TEST_F(BeaverTest, TriplesAreFresh) {
  const BeaverTriplePool::TripleBatch batch = pool_.Take(2).ValueOrDie();
  EXPECT_NE(batch.a.shares(0)[0], batch.a.shares(0)[1]);
}

TEST_F(BeaverTest, MulIsExact) {
  const SharedVector x = Share(0, {3, -4, 0, 123456});
  const SharedVector y = Share(1, {7, 9, 5, -1000});
  const SharedVector product = protocol_.Mul(x, y).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(product).ValueOrDie(),
            (std::vector<int64_t>{21, -36, 0, -123456000}));
  EXPECT_EQ(protocol_.beaver_triples_used(), 4u);
}

TEST_F(BeaverTest, MulChainsAndMatchesGrr) {
  // Beaver output stays a degree-t sharing: products chain, and the result
  // matches GRR multiplication of the same inputs.
  const SharedVector x = Share(0, {6});
  const SharedVector y = Share(1, {-7});
  const SharedVector beaver1 = protocol_.Mul(x, y).ValueOrDie();
  const SharedVector beaver2 = protocol_.Mul(beaver1, x).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(beaver2).ValueOrDie(),
            (std::vector<int64_t>{-252}));

  protocol_.set_beaver_pool(nullptr);
  const SharedVector grr =
      protocol_.Mul(protocol_.Mul(x, y).ValueOrDie(), x).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(grr).ValueOrDie(),
            (std::vector<int64_t>{-252}));
}

TEST_F(BeaverTest, OnlineTrafficIsOneOpening) {
  const SharedVector x = Share(0, {1, 2, 3});
  const SharedVector y = Share(1, {4, 5, 6});
  const NetworkStats before = network_.stats();
  (void)protocol_.Mul(x, y).ValueOrDie();
  const NetworkStats after = network_.stats();
  // One round; the opening broadcasts 2*k elements per ordered pair.
  EXPECT_EQ(after.rounds - before.rounds, 1u);
  EXPECT_EQ(after.field_elements - before.field_elements,
            kParties * (kParties - 1) * 2 * 3);
}

TEST_F(BeaverTest, ShapeMismatchRejected) {
  const SharedVector x = Share(0, {1, 2});
  const SharedVector y = Share(1, {3});
  EXPECT_FALSE(protocol_.Mul(x, y).ok());
}

TEST_F(BeaverTest, PoolStreamMatchesDealerStream) {
  // The pool is the reference scalar dealer run offline: per triple, draw
  // a and b, then Shamir-share a, b and a*b in turn from the same stream.
  const ShamirScheme scheme(kParties, kThreshold);
  BeaverTriplePool pool(scheme, 97, 6);
  Rng dealer(97);
  const BeaverTriplePool::TripleBatch batch = pool.Take(6).ValueOrDie();
  for (size_t i = 0; i < 6; ++i) {
    const Field::Element a = dealer.NextBounded(Field::kModulus);
    const Field::Element b = dealer.NextBounded(Field::kModulus);
    const std::vector<Field::Element> a_shares = scheme.Share(a, dealer);
    const std::vector<Field::Element> b_shares = scheme.Share(b, dealer);
    const std::vector<Field::Element> c_shares =
        scheme.Share(Field::Mul(a, b), dealer);
    for (size_t j = 0; j < kParties; ++j) {
      EXPECT_EQ(batch.a.shares(j)[i], a_shares[j])
          << "a triple " << i << " party " << j;
      EXPECT_EQ(batch.b.shares(j)[i], b_shares[j])
          << "b triple " << i << " party " << j;
      EXPECT_EQ(batch.c.shares(j)[i], c_shares[j])
          << "c triple " << i << " party " << j;
    }
  }
}

TEST_F(BeaverTest, PoolBackedMulDrainsThePool) {
  const SharedVector x = Share(0, {3, -4, 0, 123456});
  const SharedVector y = Share(1, {7, 9, 5, -1000});
  BeaverTriplePool pool(ShamirScheme(kParties, kThreshold), 23, 4);
  protocol_.set_beaver_pool(&pool);
  const SharedVector product = protocol_.Mul(x, y).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(product).ValueOrDie(),
            (std::vector<int64_t>{21, -36, 0, -123456000}));
  EXPECT_EQ(protocol_.beaver_triples_used(), 4u);
  EXPECT_EQ(pool.available(), 0u);
  EXPECT_EQ(protocol_.Mul(x, y).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(BeaverTest, PoolExhaustionRefusesWithoutStateChange) {
  BeaverTriplePool pool(ShamirScheme(kParties, kThreshold), 5, 3);
  EXPECT_EQ(pool.capacity(), 3u);
  ASSERT_TRUE(pool.Take(2).ok());
  EXPECT_EQ(pool.available(), 1u);

  // Over-ask: kFailedPrecondition, and nothing is consumed or re-dealt —
  // the pool NEVER silently deals online.
  const Result<BeaverTriplePool::TripleBatch> over = pool.Take(2);
  EXPECT_EQ(over.status().code(), StatusCode::kFailedPrecondition)
      << over.status().ToString();
  EXPECT_EQ(pool.available(), 1u);
  EXPECT_EQ(pool.taken(), 2u);
  EXPECT_EQ(pool.capacity(), 3u);

  // The remaining triple is still the third of the seed's stream.
  BeaverTriplePool straight(ShamirScheme(kParties, kThreshold), 5, 3);
  const BeaverTriplePool::TripleBatch expected =
      straight.Take(3).ValueOrDie();
  const BeaverTriplePool::TripleBatch last = pool.Take(1).ValueOrDie();
  for (size_t j = 0; j < kParties; ++j) {
    EXPECT_EQ(last.c.shares(j)[0], expected.c.shares(j)[2]);
  }
  EXPECT_EQ(pool.Take(1).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(BeaverTest, RefillExtendsTheSameStream) {
  const ShamirScheme scheme(kParties, kThreshold);
  BeaverTriplePool refilled(scheme, 11, 2);
  ASSERT_TRUE(refilled.Take(2).ok());
  ASSERT_TRUE(refilled.Refill(2).ok());
  EXPECT_EQ(refilled.capacity(), 4u);
  const BeaverTriplePool::TripleBatch tail = refilled.Take(2).ValueOrDie();
  // Triples 3 and 4 of a straight 4-capacity pool, bit for bit.
  BeaverTriplePool straight(scheme, 11, 4);
  ASSERT_TRUE(straight.Take(2).ok());
  const BeaverTriplePool::TripleBatch expected = straight.Take(2).ValueOrDie();
  for (size_t j = 0; j < kParties; ++j) {
    EXPECT_EQ(tail.a.shares(j), expected.a.shares(j));
    EXPECT_EQ(tail.b.shares(j), expected.b.shares(j));
    EXPECT_EQ(tail.c.shares(j), expected.c.shares(j));
  }
}

TEST_F(BeaverTest, RefillUnderDropoutEnforcesDealerQuorum) {
  // Dealing degree-t triples that recombine under a quorum Mul needs the
  // 2t+1 dealer rule, exactly like a GRR level: with t = 2 that is 5
  // distinct surviving dealers.
  BeaverTriplePool pool(ShamirScheme(kParties, kThreshold), 13, 1);

  const Status short_quorum = pool.Refill(4, {0, 1, 2, 3});
  EXPECT_EQ(short_quorum.code(), StatusCode::kFailedPrecondition)
      << short_quorum.ToString();
  EXPECT_EQ(pool.capacity(), 1u);  // Refused refill left the pool alone.

  // Duplicates and out-of-range indices do not inflate the count.
  const Status padded = pool.Refill(4, {0, 1, 1, 2, 3, 3, 99});
  EXPECT_EQ(padded.code(), StatusCode::kFailedPrecondition)
      << padded.ToString();

  const Status full_quorum = pool.Refill(4, {0, 1, 2, 3, 4});
  EXPECT_TRUE(full_quorum.ok()) << full_quorum.ToString();
  EXPECT_EQ(pool.capacity(), 5u);
  EXPECT_EQ(pool.available(), 5u);
}

TEST(BeaverThreePartyTest, WorksAtMinimalConfiguration) {
  LockstepTransport network(3, 0.0);
  BgwProtocol protocol(ShamirScheme(3, 1), &network, 31);
  BeaverTriplePool pool(ShamirScheme(3, 1), 32, 1);
  protocol.set_beaver_pool(&pool);
  const SharedVector x =
      protocol.ShareFromParty(0, Field::EncodeVector({11})).ValueOrDie();
  const SharedVector y =
      protocol.ShareFromParty(2, Field::EncodeVector({-3})).ValueOrDie();
  const SharedVector product = protocol.Mul(x, y).ValueOrDie();
  EXPECT_EQ(protocol.OpenSigned(product).ValueOrDie(),
            (std::vector<int64_t>{-33}));
}

}  // namespace
}  // namespace sqm
