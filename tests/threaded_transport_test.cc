// Tests of the party-thread transport: blocking receives across threads,
// receive timeouts, party crashes surfacing as protocol errors, Reset, and
// a per-party all-to-all stress run (the TSan target for the `net` ctest
// label).

#include "net/threaded.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "mpc/bgw.h"
#include "mpc/shamir.h"
#include "net/lockstep.h"
#include "net/runner.h"

namespace sqm {
namespace {

ThreadedTransportOptions FastOptions() {
  // A short window keeps the timeout tests quick; a value this small is
  // fine because in-process "links" deliver in microseconds.
  ThreadedTransportOptions options;
  options.receive_timeout_seconds = 0.02;
  return options;
}

TEST(ThreadedTransportTest, BlockingReceiveWaitsForConcurrentSend) {
  ThreadedTransport net(2, FastOptions());
  std::thread sender([&net] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    net.Send(0, 1, {7, 8});
  });
  // The receive starts before the send: it must block, not fail.
  const Result<Transport::Payload> received = net.Receive(0, 1);
  sender.join();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received.ValueOrDie(), (Transport::Payload{7, 8}));
}

TEST(ThreadedTransportTest, DriverModeBgwMatchesLockstep) {
  // The same single-driver BGW program over both transports: the values
  // opened and every traffic counter must agree.
  auto run = [](Transport* network) {
    BgwEngine engine(ShamirScheme(5, 2), network, 77);
    Circuit circuit;
    const Circuit::WireId a0 = circuit.AddInput(0);
    const Circuit::WireId a1 = circuit.AddInput(0);
    circuit.MarkOutput(circuit.AddMul(a0, circuit.AddInput(3)));
    circuit.MarkOutput(circuit.AddMul(a1, circuit.AddInput(3)));
    return engine.Evaluate(circuit, {{9, -2}, {}, {}, {4, 11}, {}})
        .ValueOrDie();
  };

  LockstepTransport lockstep(5, 0.1);
  ThreadedTransport threaded(5, FastOptions());

  const std::vector<int64_t> lockstep_opened = run(&lockstep);
  EXPECT_EQ(run(&threaded), lockstep_opened);
  EXPECT_EQ(lockstep_opened, (std::vector<int64_t>{36, -22}));

  const NetworkStats expected = lockstep.stats();
  const NetworkStats actual = threaded.stats();
  EXPECT_EQ(actual.messages, expected.messages);
  EXPECT_EQ(actual.field_elements, expected.field_elements);
  EXPECT_EQ(actual.rounds, expected.rounds);
  EXPECT_EQ(actual.bytes(), expected.bytes());
}

TEST(ThreadedTransportTest, SilentChannelTimesOutWithDeadline) {
  ThreadedTransport net(2, FastOptions());
  const Result<Transport::Payload> received = net.Receive(0, 1);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(net.Snapshot().receive_timeouts, 1u);  // One window, no retry.
}

TEST(ThreadedTransportTest, CrashedPartyMidMulFailsWithUnavailable) {
  // Party 2 crashes after the two input rounds; the Mul that follows cannot
  // gather its re-shares and must fail gracefully instead of aborting.
  ThreadedTransportOptions options = FastOptions();
  options.crashes = {{2, 2}};
  ThreadedTransport net(3, options);

  BgwEngine engine(ShamirScheme(3, 1), &net, 5);
  Circuit circuit;
  circuit.MarkOutput(circuit.AddMul(circuit.AddInput(0), circuit.AddInput(1)));
  const Result<SharedVector> product =
      engine.EvaluateToShares(circuit, {{6}, {7}, {}});
  ASSERT_FALSE(product.ok());
  EXPECT_EQ(product.status().code(), StatusCode::kUnavailable);
  // The crashed party's two cross-party re-shares were swallowed.
  EXPECT_EQ(net.Snapshot().crash_losses, 2u);
}

TEST(ThreadedTransportTest, ResetDrainsQueues) {
  ThreadedTransport net(2, FastOptions());
  net.Send(0, 1, {1});
  net.Send(1, 0, {2});
  net.EndRound();
  EXPECT_EQ(net.Reset(), 2u);
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.completed_rounds(), 0u);
  EXPECT_FALSE(net.HasPending(0, 1));
  EXPECT_FALSE(net.HasPending(1, 0));
}

TEST(ThreadedTransportTest, PerPartyAllToAllStress) {
  // The TSan target: every party on its own thread, all-to-all traffic with
  // a round barrier, checking payload integrity and final accounting. Any
  // data race in the mailbox or accounting paths shows up here.
  constexpr size_t kParties = 4;
  constexpr uint64_t kRounds = 25;
  ThreadedTransport net(kParties, FastOptions());
  PartyRunner runner(kParties);

  const Status status = runner.Run([&](size_t party) -> Status {
    for (uint64_t round = 0; round < kRounds; ++round) {
      for (size_t to = 0; to < kParties; ++to) {
        net.Send(party, to, {round, party, to});
      }
      net.ArriveRound(party);
      for (size_t from = 0; from < kParties; ++from) {
        SQM_ASSIGN_OR_RETURN(const Transport::Payload received,
                             net.Receive(from, party));
        if (received != Transport::Payload{round, from, party}) {
          return Status::Internal("payload corrupted in transit");
        }
      }
    }
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();

  const TransportStats snapshot = net.Snapshot();
  EXPECT_EQ(snapshot.totals.rounds, kRounds);
  EXPECT_EQ(snapshot.totals.messages, kRounds * kParties * (kParties - 1));
  EXPECT_EQ(snapshot.totals.field_elements, 3 * snapshot.totals.messages);
  EXPECT_EQ(snapshot.channels.size(), kParties * (kParties - 1));
}

}  // namespace
}  // namespace sqm
