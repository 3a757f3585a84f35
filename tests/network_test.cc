#include "net/lockstep.h"

#include <gtest/gtest.h>

#include "mpc/field.h"

namespace sqm {
namespace {

TEST(NetworkTest, SendReceiveFifo) {
  LockstepTransport net(3, 0.1);
  net.Send(0, 1, {10, 20});
  net.Send(0, 1, {30});
  EXPECT_TRUE(net.HasPending(0, 1));
  EXPECT_EQ(net.Receive(0, 1).ValueOrDie(),
            (std::vector<Field::Element>{10, 20}));
  EXPECT_EQ(net.Receive(0, 1).ValueOrDie(),
            (std::vector<Field::Element>{30}));
  EXPECT_FALSE(net.HasPending(0, 1));
}

TEST(NetworkTest, ReceiveOnEmptyChannelFails) {
  LockstepTransport net(2, 0.0);
  EXPECT_EQ(net.Receive(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(NetworkTest, ChannelsAreIndependent) {
  LockstepTransport net(3, 0.0);
  net.Send(0, 1, {1});
  net.Send(1, 0, {2});
  net.Send(2, 1, {3});
  EXPECT_EQ(net.Receive(1, 0).ValueOrDie()[0], 2u);
  EXPECT_EQ(net.Receive(0, 1).ValueOrDie()[0], 1u);
  EXPECT_EQ(net.Receive(2, 1).ValueOrDie()[0], 3u);
}

TEST(NetworkTest, SelfSendDoesNotCountAsTraffic) {
  LockstepTransport net(2, 0.0);
  net.Send(0, 0, {1, 2, 3});
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.stats().field_elements, 0u);
  EXPECT_EQ(net.Receive(0, 0).ValueOrDie().size(), 3u);
}

TEST(NetworkTest, StatsCountMessagesAndElements) {
  LockstepTransport net(3, 0.0);
  net.Send(0, 1, {1, 2});
  net.Send(1, 2, {3});
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().field_elements, 3u);
  EXPECT_EQ(net.stats().bytes(), 3 * sizeof(Field::Element));
}

TEST(NetworkTest, SimulatedClockAdvancesPerRound) {
  LockstepTransport net(2, 0.1);
  EXPECT_DOUBLE_EQ(net.SimulatedSeconds(), 0.0);
  net.EndRound();
  net.EndRound();
  net.EndRound();
  EXPECT_DOUBLE_EQ(net.SimulatedSeconds(), 0.3);
  EXPECT_EQ(net.stats().rounds, 3u);
}

TEST(NetworkTest, ResetClearsEverything) {
  LockstepTransport net(2, 0.1);
  net.Send(0, 1, {1});
  net.EndRound();
  net.Reset();
  EXPECT_FALSE(net.HasPending(0, 1));
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_DOUBLE_EQ(net.SimulatedSeconds(), 0.0);
}

}  // namespace
}  // namespace sqm
