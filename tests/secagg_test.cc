#include "mpc/secagg.h"
#include "net/lockstep.h"

#include <gtest/gtest.h>

#include <cmath>

#include <optional>
#include <set>

#include "sampling/rng.h"
#include "sampling/skellam_sampler.h"

namespace sqm {
namespace {

TEST(SecAggTest, MasksCancelInTheSum) {
  constexpr size_t kClients = 6;
  SecureAggregation secagg(kClients, 77);
  std::vector<std::vector<Field::Element>> uploads;
  std::vector<int64_t> expected(4, 0);
  Rng rng(1);
  for (size_t j = 0; j < kClients; ++j) {
    std::vector<int64_t> values(4);
    for (auto& v : values) {
      v = static_cast<int64_t>(rng.NextBounded(2001)) - 1000;
    }
    for (size_t t = 0; t < 4; ++t) expected[t] += values[t];
    uploads.push_back(secagg.MaskedUpload(j, values).ValueOrDie());
  }
  EXPECT_EQ(secagg.Aggregate(uploads).ValueOrDie(), expected);
}

TEST(SecAggTest, IndividualUploadLooksUniform) {
  // A single masked upload must reveal nothing: with >= 2 clients every
  // element is shifted by a uniform mask.
  SecureAggregation secagg(3, 5);
  std::set<Field::Element> seen;
  for (int r = 0; r < 500; ++r) {
    SecureAggregation fresh(3, 1000 + r);
    const auto upload =
        fresh.MaskedUpload(0, {42}).ValueOrDie();
    seen.insert(upload[0]);
  }
  // Essentially all distinct and spread out.
  EXPECT_GT(seen.size(), 495u);
}

TEST(SecAggTest, TwoClientsMinimum) {
  SecureAggregation secagg(2, 9);
  const auto u0 = secagg.MaskedUpload(0, {10, -5}).ValueOrDie();
  const auto u1 = secagg.MaskedUpload(1, {-3, 8}).ValueOrDie();
  EXPECT_EQ(secagg.Aggregate({u0, u1}).ValueOrDie(),
            (std::vector<int64_t>{7, 3}));
}

TEST(SecAggTest, ValidatesInputs) {
  SecureAggregation secagg(3, 9);
  EXPECT_FALSE(secagg.MaskedUpload(7, {1}).ok());
  const auto u0 = secagg.MaskedUpload(0, {1}).ValueOrDie();
  EXPECT_FALSE(secagg.Aggregate({u0}).ok());  // Missing uploads.
  const auto u1 = secagg.MaskedUpload(1, {1}).ValueOrDie();
  const auto u2 = secagg.MaskedUpload(2, {1, 2}).ValueOrDie();  // Ragged.
  EXPECT_FALSE(secagg.Aggregate({u0, u1, u2}).ok());
}

TEST(SecAggTest, SupportsDistributedDpForLinearFunctions) {
  // The HFL recipe [39-41]: each client adds its own Skellam share before
  // masking; the server learns sum x_j + Sk(mu) and nothing else. This is
  // the pattern SQM generalizes beyond linearity.
  constexpr size_t kClients = 8;
  const double mu = 200.0;
  SecureAggregation secagg(kClients, 3);
  SkellamSampler share(mu / kClients);
  Rng rng(4);
  std::vector<std::vector<Field::Element>> uploads;
  int64_t true_sum = 0;
  for (size_t j = 0; j < kClients; ++j) {
    const int64_t value = static_cast<int64_t>(j) * 10;
    true_sum += value;
    const int64_t noisy = value + share.Sample(rng);
    uploads.push_back(secagg.MaskedUpload(j, {noisy}).ValueOrDie());
  }
  const int64_t released = secagg.Aggregate(uploads).ValueOrDie()[0];
  // Noisy but near: |release - sum| within 12 std of Sk(mu).
  EXPECT_LT(std::llabs(released - true_sum),
            static_cast<int64_t>(12.0 * std::sqrt(2.0 * mu)));
}

TEST(SecAggTest, CannotExpressCrossClientProducts) {
  // The structural limitation that motivates SQM (Section VII "Gaps"):
  // aggregating masked uploads yields SUMS. For the VFL covariance entry
  // x_a * x_b — a product across two clients' private attributes — the
  // sum of anything the clients can compute locally from their own
  // attribute alone cannot equal the product for all inputs. We exhibit
  // the counterexample pair rather than prove it: two input pairs with
  // equal sums but different products.
  SecureAggregation secagg(2, 13);
  const auto run = [&](int64_t a, int64_t b) {
    const auto u0 = secagg.MaskedUpload(0, {a}).ValueOrDie();
    const auto u1 = secagg.MaskedUpload(1, {b}).ValueOrDie();
    return secagg.Aggregate({u0, u1}).ValueOrDie()[0];
  };
  // (1, 4) and (2, 3): same aggregate 5, products 4 vs 6 — a linear
  // aggregation of per-client values cannot distinguish them.
  EXPECT_EQ(run(1, 4), run(2, 3));
}

TEST(SecAggTest, DropoutsYieldPartialSumOverSurvivors) {
  constexpr size_t kClients = 6;
  SecureAggregation secagg(kClients, 21);
  std::vector<std::optional<std::vector<Field::Element>>> uploads(kClients);
  std::vector<int64_t> expected(3, 0);
  Rng rng(4);
  for (size_t j = 0; j < kClients; ++j) {
    std::vector<int64_t> values(3);
    for (auto& v : values) {
      v = static_cast<int64_t>(rng.NextBounded(2001)) - 1000;
    }
    if (j == 1 || j == 4) continue;  // Clients 1 and 4 drop out.
    for (size_t t = 0; t < 3; ++t) expected[t] += values[t];
    uploads[j] = secagg.MaskedUpload(j, values).ValueOrDie();
  }
  const auto result = secagg.AggregateWithDropouts(uploads).ValueOrDie();
  EXPECT_EQ(result.sum, expected);
  EXPECT_EQ(result.survivors, (std::vector<size_t>{0, 2, 3, 5}));
  EXPECT_EQ(result.num_dropped, 2u);
}

TEST(SecAggTest, NoDropoutsMatchesPlainAggregate) {
  SecureAggregation secagg(4, 31);
  std::vector<std::vector<Field::Element>> plain;
  std::vector<std::optional<std::vector<Field::Element>>> optional;
  for (size_t j = 0; j < 4; ++j) {
    const auto upload =
        secagg.MaskedUpload(j, {int64_t(j) + 1, -int64_t(j)}).ValueOrDie();
    plain.push_back(upload);
    optional.emplace_back(upload);
  }
  const auto result = secagg.AggregateWithDropouts(optional).ValueOrDie();
  EXPECT_EQ(result.sum, secagg.Aggregate(plain).ValueOrDie());
  EXPECT_EQ(result.num_dropped, 0u);
}

TEST(SecAggTest, SingleSurvivorIsRefused) {
  // Unmasking down to one survivor would reveal its bare input.
  SecureAggregation secagg(3, 41);
  std::vector<std::optional<std::vector<Field::Element>>> uploads(3);
  uploads[2] = secagg.MaskedUpload(2, {99}).ValueOrDie();
  const auto result = secagg.AggregateWithDropouts(uploads);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SecAggTest, UnmaskTrafficAccountedWhenNetworkAttached) {
  LockstepTransport network(5, 0.0);
  SecureAggregation secagg(5, 51, &network);
  std::vector<std::optional<std::vector<Field::Element>>> uploads(5);
  for (size_t j = 0; j < 5; ++j) {
    if (j == 3) continue;
    uploads[j] = secagg.MaskedUpload(j, {7, 8}).ValueOrDie();
  }
  const auto before = network.stats();
  ASSERT_TRUE(secagg.AggregateWithDropouts(uploads).ok());
  // One unmask message per survivor towards the server; survivor 0 is the
  // server itself (self-send, not counted).
  EXPECT_EQ(network.stats().messages - before.messages, 3u);
}

TEST(SecAggTest, TrafficAccountedWhenNetworkAttached) {
  LockstepTransport network(4, 0.0);
  SecureAggregation secagg(4, 5, &network);
  for (size_t j = 0; j < 4; ++j) {
    (void)secagg.MaskedUpload(j, {1, 2, 3}).ValueOrDie();
  }
  // Client 0's upload is a self-send (it is also the server here), so 3
  // uploads count as traffic.
  EXPECT_EQ(network.stats().messages, 3u);
  EXPECT_EQ(network.stats().field_elements, 9u);
}

}  // namespace
}  // namespace sqm
