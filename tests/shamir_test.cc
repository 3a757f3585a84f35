#include "mpc/shamir.h"

#include <gtest/gtest.h>

#include <set>

#include "sampling/rng.h"

namespace sqm {
namespace {

TEST(ShamirTest, ValidateRejectsBadParameters) {
  EXPECT_FALSE(ShamirScheme::Validate(1, 1).ok());   // Too few parties.
  EXPECT_FALSE(ShamirScheme::Validate(4, 2).ok());   // 2t >= n.
  EXPECT_FALSE(ShamirScheme::Validate(4, 0).ok());   // Degenerate threshold.
  EXPECT_TRUE(ShamirScheme::Validate(3, 1).ok());
  EXPECT_TRUE(ShamirScheme::Validate(5, 2).ok());
  EXPECT_TRUE(ShamirScheme::Validate(7, 3).ok());
}

TEST(ShamirTest, ShareReconstructRoundTrip) {
  ShamirScheme scheme(5, 2);
  Rng rng(1);
  for (int64_t secret : {0L, 1L, -1L, 123456789L, -987654321L}) {
    const auto shares = scheme.Share(Field::Encode(secret), rng);
    ASSERT_EQ(shares.size(), 5u);
    EXPECT_EQ(Field::Decode(scheme.Reconstruct(shares)), secret);
  }
}

TEST(ShamirTest, ShareBatchWithTailIsBitIdenticalToShareBatch) {
  // ShareBatch draws secret-major, so dealing the trailing secrets as a
  // second batch yields the same rows and leaves the stream at the same
  // cursor, for every split point including "all tail".
  const ShamirScheme scheme(5, 2);
  std::vector<Field::Element> secrets;
  for (int64_t v = -3; v < 6; ++v) secrets.push_back(Field::Encode(v * 1000));
  for (size_t tail = 0; tail <= secrets.size(); ++tail) {
    Rng whole(77);
    Rng split(77);
    double tail_seconds = 0.0;
    EXPECT_EQ(scheme.ShareBatchWithTail(secrets, tail, split, 0, &tail_seconds),
              scheme.ShareBatch(secrets, whole))
        << "tail " << tail;
    EXPECT_EQ(split.NextUint64(), whole.NextUint64()) << "tail " << tail;
    if (tail == 0) {
      EXPECT_EQ(tail_seconds, 0.0);
    }
  }
}

TEST(ShamirTest, AnySubsetOfThresholdPlusOneReconstructs) {
  ShamirScheme scheme(5, 2);
  Rng rng(2);
  const Field::Element secret = Field::Encode(42);
  const auto shares = scheme.Share(secret, rng);
  // All (5 choose 3) subsets.
  for (size_t a = 0; a < 5; ++a) {
    for (size_t b = a + 1; b < 5; ++b) {
      for (size_t c = b + 1; c < 5; ++c) {
        const auto value =
            scheme.ReconstructFromSurvivors(shares, {a, b, c}, 2);
        EXPECT_EQ(value.ValueOrDie(), secret);
      }
    }
  }
}

TEST(ShamirTest, ThresholdSharesLookUniform) {
  // With threshold t, the marginal of any single share is uniform; check a
  // coarse statistic: share values of a fixed secret spread across the
  // field rather than clustering.
  ShamirScheme scheme(3, 1);
  Rng rng(4);
  std::set<Field::Element> first_shares;
  for (int i = 0; i < 200; ++i) {
    first_shares.insert(scheme.Share(Field::Encode(5), rng)[0]);
  }
  EXPECT_GT(first_shares.size(), 195u);  // Essentially all distinct.
}

TEST(ShamirTest, SharesAreAdditivelyHomomorphic) {
  ShamirScheme scheme(5, 2);
  Rng rng(5);
  const auto sa = scheme.Share(Field::Encode(100), rng);
  const auto sb = scheme.Share(Field::Encode(23), rng);
  std::vector<Field::Element> sum(5);
  for (size_t j = 0; j < 5; ++j) sum[j] = Field::Add(sa[j], sb[j]);
  EXPECT_EQ(Field::Decode(scheme.Reconstruct(sum)), 123);
}

TEST(ShamirTest, Degree2tReconstructionOfShareProducts) {
  // Local products of two degree-t sharings form a degree-2t sharing of the
  // product of the secrets — the core fact behind BGW multiplication.
  ShamirScheme scheme(5, 2);
  Rng rng(6);
  const auto sa = scheme.Share(Field::Encode(12), rng);
  const auto sb = scheme.Share(Field::Encode(-7), rng);
  std::vector<Field::Element> products(5);
  for (size_t j = 0; j < 5; ++j) products[j] = Field::Mul(sa[j], sb[j]);
  // GRR's recombination: the Lagrange weights of parties 0..2t.
  const std::vector<Field::Element>& weights = scheme.degree2t_weights();
  Field::Element product = 0;
  for (size_t j = 0; j < weights.size(); ++j) {
    product = Field::Add(product, Field::Mul(weights[j], products[j]));
  }
  EXPECT_EQ(Field::Decode(product), -84);
}

TEST(ShamirTest, EveryQuorumSubsetReconstructsTheSameProduct) {
  // Quorum property behind dropout-tolerant BGW: a degree-2t sharing (the
  // local products of two degree-t sharings) reconstructs to the SAME
  // secret from every (2t+1)-subset of the n evaluation points.
  constexpr size_t kParties = 7;
  constexpr size_t kThreshold = 2;  // 2t+1 = 5 of 7.
  ShamirScheme scheme(kParties, kThreshold);
  Rng rng(7);
  const auto sa = scheme.Share(Field::Encode(1234), rng);
  const auto sb = scheme.Share(Field::Encode(-567), rng);
  std::vector<Field::Element> products(kParties);
  for (size_t j = 0; j < kParties; ++j) {
    products[j] = Field::Mul(sa[j], sb[j]);
  }
  const int64_t expected = 1234 * -567;
  size_t subsets = 0;
  // Enumerate all (7 choose 5) = 21 survivor subsets via the complement
  // (the two dropped parties).
  for (size_t d1 = 0; d1 < kParties; ++d1) {
    for (size_t d2 = d1 + 1; d2 < kParties; ++d2) {
      std::vector<size_t> survivors;
      for (size_t j = 0; j < kParties; ++j) {
        if (j != d1 && j != d2) survivors.push_back(j);
      }
      const auto value = scheme.ReconstructFromSurvivors(
          products, survivors, 2 * kThreshold);
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(Field::Decode(value.ValueOrDie()), expected);
      ++subsets;
    }
  }
  EXPECT_EQ(subsets, 21u);
}

TEST(ShamirTest, QuorumOfOnly2tSharesFailsWithFailedPrecondition) {
  ShamirScheme scheme(7, 2);
  Rng rng(8);
  const auto sa = scheme.Share(Field::Encode(5), rng);
  const auto sb = scheme.Share(Field::Encode(9), rng);
  std::vector<Field::Element> products(7);
  for (size_t j = 0; j < 7; ++j) products[j] = Field::Mul(sa[j], sb[j]);
  // 2t = 4 survivors: one short of the 2t+1 quorum.
  const auto value =
      scheme.ReconstructFromSurvivors(products, {0, 2, 4, 6}, 4);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(value.status().message().find("need 5"), std::string::npos);
  EXPECT_NE(value.status().message().find("have 4"), std::string::npos);
}

TEST(ShamirTest, SurvivorReconstructionValidatesInput) {
  ShamirScheme scheme(5, 2);
  Rng rng(9);
  const auto shares = scheme.Share(Field::Encode(11), rng);
  // Out-of-range survivor index.
  EXPECT_FALSE(
      scheme.ReconstructFromSurvivors(shares, {0, 1, 9}, 2).ok());
  // Too few survivors for a degree-t sharing.
  EXPECT_FALSE(scheme.ReconstructFromSurvivors(shares, {0, 1}, 2).ok());
  // Duplicates do not count twice towards the quorum.
  const auto dup =
      scheme.ReconstructFromSurvivors(shares, {0, 0, 1}, 2);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kFailedPrecondition);
  // Degree-t reconstruction from t+1 survivors works on any subset.
  const auto value = scheme.ReconstructFromSurvivors(shares, {4, 2, 0}, 2);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(Field::Decode(value.ValueOrDie()), 11);
}

TEST(ShamirTest, ConsistencyCheckDetectsTamperedTrailingShare) {
  // Reconstruct interpolates from the first threshold+1 shares only; a
  // tampered TRAILING share would be silently ignored.
  // CheckConsistentSharing verifies all n points lie on one polynomial.
  ShamirScheme scheme(5, 2);
  Rng rng(31);
  std::vector<Field::Element> shares = scheme.Share(Field::Encode(77), rng);
  const Status clean = scheme.CheckConsistentSharing(shares, 2);
  ASSERT_TRUE(clean.ok()) << clean.ToString();
  EXPECT_EQ(Field::Decode(scheme.Reconstruct(shares)), 77);

  shares.back() = Field::Add(shares.back(), 1);
  // Reconstruct cannot see the tamper (it never touches share 4)...
  EXPECT_EQ(Field::Decode(scheme.Reconstruct(shares)), 77);
  // ...the consistency check must.
  const Status tampered = scheme.CheckConsistentSharing(shares, 2);
  EXPECT_EQ(tampered.code(), StatusCode::kIntegrityViolation)
      << tampered.ToString();
}

TEST(ShamirTest, LagrangeCoefficientsSumToOneForConstantPolynomial) {
  // For the constant polynomial phi == 1 every share is 1, so the Lagrange
  // weights must sum to 1.
  ShamirScheme scheme(7, 3);
  const auto coeffs = scheme.LagrangeAtZero({0, 1, 2, 3});
  Field::Element sum = 0;
  for (const auto c : coeffs) sum = Field::Add(sum, c);
  EXPECT_EQ(sum, 1u);
}

}  // namespace
}  // namespace sqm
