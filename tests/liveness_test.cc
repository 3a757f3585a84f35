#include "net/liveness.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace sqm {
namespace {

TEST(LivenessTest, StartsAllAlive) {
  LivenessTracker tracker(4);
  EXPECT_EQ(tracker.num_parties(), 4u);
  EXPECT_EQ(tracker.num_alive(), 4u);
  EXPECT_EQ(tracker.num_dead(), 0u);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(tracker.state(j), PartyLiveness::kAlive);
    EXPECT_FALSE(tracker.IsDead(j));
  }
  EXPECT_EQ(tracker.Survivors(), (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(tracker.Dead().empty());
}

TEST(LivenessTest, TimeoutsWalkAliveSuspectedDead) {
  LivenessTracker tracker(3);
  tracker.RecordFailure(1, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tracker.state(1), PartyLiveness::kSuspected);
  EXPECT_EQ(tracker.num_alive(), 3u);  // Suspected still counts alive.
  tracker.RecordFailure(1, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tracker.state(1), PartyLiveness::kDead);
  EXPECT_EQ(tracker.num_alive(), 2u);
  EXPECT_EQ(tracker.Dead(), (std::vector<size_t>{1}));
}

TEST(LivenessTest, SuccessClearsSuspicion) {
  LivenessTracker tracker(3);
  tracker.RecordFailure(2, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tracker.state(2), PartyLiveness::kSuspected);
  tracker.RecordSuccess(2);
  EXPECT_EQ(tracker.state(2), PartyLiveness::kAlive);
  // The failure counter restarted: the next timeout only suspects again
  // (without the reset it would be the second and kill); a second one
  // in a row kills.
  tracker.RecordFailure(2, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tracker.state(2), PartyLiveness::kSuspected);
  tracker.RecordFailure(2, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tracker.state(2), PartyLiveness::kDead);
}

TEST(LivenessTest, UnavailableKillsImmediately) {
  LivenessTracker tracker(3);
  tracker.RecordFailure(0, StatusCode::kUnavailable);
  EXPECT_TRUE(tracker.IsDead(0));
  EXPECT_EQ(tracker.Survivors(), (std::vector<size_t>{1, 2}));
}

TEST(LivenessTest, DeadIsAbsorbing) {
  LivenessTracker tracker(2);
  tracker.MarkDead(1);
  tracker.RecordSuccess(1);
  EXPECT_TRUE(tracker.IsDead(1));
  tracker.RecordFailure(1, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(tracker.IsDead(1));
}

TEST(LivenessTest, ResetRevivesEveryone) {
  LivenessTracker tracker(3);
  tracker.MarkDead(0);
  tracker.RecordFailure(1, StatusCode::kDeadlineExceeded);
  tracker.Reset();
  EXPECT_EQ(tracker.num_alive(), 3u);
  EXPECT_EQ(tracker.state(1), PartyLiveness::kAlive);
}

TEST(LivenessTest, ToStringCoversAllStates) {
  EXPECT_STREQ(PartyLivenessToString(PartyLiveness::kAlive), "alive");
  EXPECT_STREQ(PartyLivenessToString(PartyLiveness::kSuspected),
               "suspected");
  EXPECT_STREQ(PartyLivenessToString(PartyLiveness::kDead), "dead");
}

TEST(LivenessTest, ConcurrentRecordingIsSafe) {
  // Eight threads hammer one tracker; TSan (the net/resilience sanitizer
  // config) verifies the locking.
  LivenessTracker tracker(8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&tracker, t] {
      for (int i = 0; i < 200; ++i) {
        tracker.RecordFailure(t, StatusCode::kDeadlineExceeded);
        tracker.RecordSuccess(t);
        (void)tracker.Survivors();
        (void)tracker.num_alive();
      }
      tracker.RecordFailure(t, StatusCode::kUnavailable);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(tracker.num_dead(), 8u);
}

}  // namespace
}  // namespace sqm
