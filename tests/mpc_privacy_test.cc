// Statistical tests of the *secrecy* side of the MPC layer: what a
// sub-threshold coalition observes must be independent of the secrets.
// These are distributional smoke tests (chi-square-style bin comparisons),
// not proofs — BGW's information-theoretic security is classical — but
// they catch implementation bugs like reusing sharing randomness or
// leaking a secret into a deterministic share.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mpc/field.h"
#include "mpc/bgw.h"
#include "mpc/shamir.h"
#include "net/lockstep.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

/// Coarse uniformity check: bins the top bits of field elements and
/// verifies no bin deviates from the uniform expectation by more than
/// 6 sigma.
void ExpectRoughlyUniform(const std::vector<Field::Element>& values) {
  constexpr size_t kBins = 16;
  std::vector<size_t> counts(kBins, 0);
  for (Field::Element v : values) {
    ++counts[static_cast<size_t>(v >> 57)];  // Top 4 bits of 61.
  }
  const double expected =
      static_cast<double>(values.size()) / static_cast<double>(kBins);
  const double tolerance = 6.0 * std::sqrt(expected);
  for (size_t b = 0; b < kBins; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]), expected, tolerance)
        << "bin " << b;
  }
}

TEST(MpcPrivacyTest, SingleShareIsUniformRegardlessOfSecret) {
  ShamirScheme scheme(5, 2);
  Rng rng(1);
  for (int64_t secret : {0L, 1L, 1000000L}) {
    std::vector<Field::Element> observed;
    for (int i = 0; i < 20000; ++i) {
      observed.push_back(scheme.Share(Field::Encode(secret), rng)[3]);
    }
    ExpectRoughlyUniform(observed);
  }
}

TEST(MpcPrivacyTest, CoalitionShareSumsLookAlikeAcrossSecrets) {
  // A 2-of-5 coalition (threshold t = 2) sees two shares. Compare a
  // scalar statistic of the joint view (share_a + share_b mod p) across
  // two very different secrets: the distributions must agree bin-by-bin.
  ShamirScheme scheme(5, 2);
  constexpr size_t kRuns = 30000;
  constexpr size_t kBins = 16;
  auto collect = [&](int64_t secret, uint64_t seed) {
    Rng rng(seed);
    std::vector<size_t> counts(kBins, 0);
    for (size_t i = 0; i < kRuns; ++i) {
      const auto shares = scheme.Share(Field::Encode(secret), rng);
      const Field::Element view = Field::Add(shares[0], shares[4]);
      ++counts[static_cast<size_t>(view >> 57)];
    }
    return counts;
  };
  const auto counts_zero = collect(0, 11);
  const auto counts_big = collect(987654321, 13);
  for (size_t b = 0; b < kBins; ++b) {
    const double expected = static_cast<double>(kRuns) / kBins;
    EXPECT_NEAR(static_cast<double>(counts_zero[b]),
                static_cast<double>(counts_big[b]),
                8.0 * std::sqrt(expected))
        << "bin " << b;
  }
}

TEST(MpcPrivacyTest, MulResharingMessagesAreUniform) {
  // During GRR multiplication each party re-shares its local product; the
  // sub-shares a single observer receives must look uniform whatever the
  // inputs were.
  constexpr size_t kParties = 5;
  std::vector<Field::Element> observed;
  for (int run = 0; run < 4000; ++run) {
    LockstepTransport network(kParties, 0.0);
    BgwEngine engine(ShamirScheme(kParties, 2), &network, 1000 + run);
    Circuit circuit;
    circuit.MarkOutput(
        circuit.AddMul(circuit.AddInput(0), circuit.AddInput(1)));
    const SharedVector product =
        engine.EvaluateToShares(circuit, {{7}, {-13}, {}, {}, {}})
            .ValueOrDie();
    // Party 2's share of the product is one "observation" of the
    // post-reduction transcript.
    observed.push_back(product.shares(2)[0]);
  }
  ExpectRoughlyUniform(observed);
}

TEST(MpcPrivacyTest, FreshRandomnessAcrossSharings) {
  // Re-sharing the same secret twice must never reuse the polynomial.
  ShamirScheme scheme(3, 1);
  Rng rng(5);
  size_t identical = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto s1 = scheme.Share(Field::Encode(42), rng);
    const auto s2 = scheme.Share(Field::Encode(42), rng);
    if (s1 == s2) ++identical;
  }
  EXPECT_EQ(identical, 0u);
}

TEST(MpcPrivacyTest, DistinctProtocolSeedsGiveDistinctTranscripts) {
  // Two executions with different seeds must not produce the same share
  // pattern (a frozen RNG would silently break secrecy).
  LockstepTransport net_a(3, 0.0);
  LockstepTransport net_b(3, 0.0);
  BgwEngine engine_a(ShamirScheme(3, 1), &net_a, 1);
  BgwEngine engine_b(ShamirScheme(3, 1), &net_b, 2);
  const SharedVector a =
      engine_a.ShareFrom(0, Field::EncodeVector({5}), 1).ValueOrDie();
  const SharedVector b =
      engine_b.ShareFrom(0, Field::EncodeVector({5}), 1).ValueOrDie();
  EXPECT_NE(a.shares(1)[0], b.shares(1)[0]);
}

}  // namespace
}  // namespace sqm
