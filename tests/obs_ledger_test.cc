#include "obs/ledger.h"

#include <gtest/gtest.h>

#include "dp/accountant.h"
#include "obs/obs.h"

namespace sqm {
namespace {

/// The ledger singleton is shared across the binary: every test starts
/// from an empty (but sequence-preserving) ledger with obs enabled.
class LedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::PrivacyLedger::Global().Clear();
  }
};

TEST_F(LedgerTest, AppendStampsSequenceAndTime) {
  obs::LedgerEntry entry;
  entry.mechanism = "custom";
  entry.label = "test_spend";
  const uint64_t first = obs::PrivacyLedger::Global().Append(entry);
  const uint64_t second = obs::PrivacyLedger::Global().Append(entry);
  EXPECT_EQ(second, first + 1);

  const auto entries = obs::PrivacyLedger::Global().Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].sequence, first);
  EXPECT_EQ(entries[1].sequence, second);
  EXPECT_GE(entries[1].elapsed_seconds, entries[0].elapsed_seconds);
}

TEST_F(LedgerTest, EntriesSinceIsAnIncrementalCursor) {
  obs::LedgerEntry entry;
  entry.label = "before";
  obs::PrivacyLedger::Global().Append(entry);

  const uint64_t cursor = obs::PrivacyLedger::Global().NextSequence();
  entry.label = "after";
  obs::PrivacyLedger::Global().Append(entry);

  const auto fresh = obs::PrivacyLedger::Global().EntriesSince(cursor);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].label, "after");
}

TEST_F(LedgerTest, ClearKeepsSequenceMonotone) {
  obs::LedgerEntry entry;
  const uint64_t before = obs::PrivacyLedger::Global().Append(entry);
  obs::PrivacyLedger::Global().Clear();
  EXPECT_EQ(obs::PrivacyLedger::Global().size(), 0u);
  const uint64_t after = obs::PrivacyLedger::Global().Append(entry);
  EXPECT_GT(after, before);
}

TEST_F(LedgerTest, AccountantForwardsSkellamSpends) {
  PrivacyAccountant accountant;
  accountant.SetLedgerContext(/*delta=*/1e-5, /*gamma=*/256.0,
                              /*dimension=*/3);
  accountant.AddSkellam("unit_release", /*l1=*/2.0, /*l2=*/1.0, /*mu=*/64.0);

  // Local mirror: always recorded, with epsilon evaluated at the context
  // delta.
  ASSERT_EQ(accountant.ledger().size(), 1u);
  const obs::LedgerEntry& local = accountant.ledger()[0];
  EXPECT_EQ(local.mechanism, "skellam");
  EXPECT_EQ(local.label, "unit_release");
  EXPECT_DOUBLE_EQ(local.mu, 64.0);
  EXPECT_DOUBLE_EQ(local.gamma, 256.0);
  EXPECT_EQ(local.dimension, 3u);
  EXPECT_DOUBLE_EQ(local.delta, 1e-5);
  EXPECT_GT(local.epsilon, 0.0);
  EXPECT_GT(local.cumulative_epsilon, 0.0);

  // Global forwarding while enabled.
  const auto global = obs::PrivacyLedger::Global().Entries();
  ASSERT_EQ(global.size(), 1u);
  EXPECT_EQ(global[0].label, "unit_release");
}

TEST_F(LedgerTest, CumulativeEpsilonGrowsAcrossSpends) {
  PrivacyAccountant accountant;
  accountant.SetLedgerContext(1e-5);
  accountant.AddSkellam("first", 2.0, 1.0, 64.0);
  accountant.AddSkellam("second", 2.0, 1.0, 64.0);
  ASSERT_EQ(accountant.ledger().size(), 2u);
  EXPECT_GT(accountant.ledger()[1].cumulative_epsilon,
            accountant.ledger()[0].cumulative_epsilon);
  // Both standalone spends are identical mechanisms.
  EXPECT_DOUBLE_EQ(accountant.ledger()[0].epsilon,
                   accountant.ledger()[1].epsilon);
}

TEST_F(LedgerTest, KillSwitchStopsGlobalForwardingNotLocalRecording) {
  obs::SetEnabled(false);
  PrivacyAccountant accountant;
  accountant.SetLedgerContext(1e-5);
  accountant.AddSkellam("dark_release", 2.0, 1.0, 64.0);
  obs::SetEnabled(true);

  // Report data still exists; the global stream saw nothing.
  EXPECT_EQ(accountant.ledger().size(), 1u);
  EXPECT_EQ(obs::PrivacyLedger::Global().size(), 0u);
}

TEST_F(LedgerTest, ResetClearsLocalLedger) {
  PrivacyAccountant accountant;
  accountant.AddSkellam("spent", 2.0, 1.0, 64.0);
  EXPECT_EQ(accountant.ledger().size(), 1u);
  accountant.Reset();
  EXPECT_EQ(accountant.ledger().size(), 0u);
}

TEST_F(LedgerTest, GaussianSpendRecordsSigmaAsMu) {
  PrivacyAccountant accountant;
  accountant.SetLedgerContext(1e-5);
  accountant.AddGaussian("gauss_release", /*l2=*/1.0, /*sigma=*/4.0);
  ASSERT_EQ(accountant.ledger().size(), 1u);
  EXPECT_EQ(accountant.ledger()[0].mechanism, "gaussian");
  EXPECT_DOUBLE_EQ(accountant.ledger()[0].mu, 4.0);
  EXPECT_GT(accountant.ledger()[0].epsilon, 0.0);
}

}  // namespace
}  // namespace sqm
