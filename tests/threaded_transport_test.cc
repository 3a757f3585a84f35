// Tests of the concurrent transport runtime: blocking receives across
// threads, timeout/retry recovery of fault-dropped messages, party crashes
// surfacing as protocol errors, delayed and reordered delivery, mailbox
// backpressure, and a per-party all-to-all stress run (the TSan target for
// the `net` ctest label).

#include "net/threaded.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/sqm.h"
#include "mpc/field.h"
#include "mpc/bgw.h"
#include "mpc/shamir.h"
#include "net/lockstep.h"
#include "net/runner.h"

namespace sqm {
namespace {

ThreadedTransportOptions FastOptions() {
  // Short windows keep the fault tests quick; values this small are fine
  // because in-process "links" deliver in microseconds.
  ThreadedTransportOptions options;
  options.receive_timeout_seconds = 0.02;
  options.max_retries = 2;
  options.retry_backoff_seconds = 0.0005;
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
  // opened and every traffic counter must agree (faults disabled).
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
  ThreadedTransportOptions options = FastOptions();
  options.per_round_latency_seconds = 0.1;
  options.element_wire_bytes = Field::kWireBytes;
  ThreadedTransport threaded(5, options);

  const std::vector<int64_t> lockstep_opened = run(&lockstep);
  EXPECT_EQ(run(&threaded), lockstep_opened);
  EXPECT_EQ(lockstep_opened, (std::vector<int64_t>{36, -22}));

  const NetworkStats expected = lockstep.stats();
  const NetworkStats actual = threaded.stats();
  EXPECT_EQ(actual.messages, expected.messages);
  EXPECT_EQ(actual.field_elements, expected.field_elements);
  EXPECT_EQ(actual.rounds, expected.rounds);
  EXPECT_EQ(actual.bytes(), expected.bytes());
  EXPECT_DOUBLE_EQ(threaded.SimulatedSeconds(), lockstep.SimulatedSeconds());
}

TEST(ThreadedTransportTest, TimeoutThenRetryRecoversDroppedMessage) {
  // Certain drop: the first receive attempt must time out, request a
  // retransmission, and deliver the original payload on the retry.
  ThreadedTransportOptions options = FastOptions();
  options.faults.all_links.drop_probability = 1.0;
  ThreadedTransport net(2, options);

  net.Send(0, 1, {42, 43});
  const Result<Transport::Payload> received = net.Receive(0, 1);
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received.ValueOrDie(), (Transport::Payload{42, 43}));

  const TransportStats snapshot = net.Snapshot();
  EXPECT_EQ(snapshot.drops_injected, 1u);
  EXPECT_EQ(snapshot.receive_timeouts, 1u);
  EXPECT_EQ(snapshot.retries, 1u);
  // The retransmission is charged as fresh traffic, like a resent packet.
  EXPECT_EQ(snapshot.totals.messages, 2u);
  EXPECT_EQ(snapshot.totals.field_elements, 4u);
}

TEST(ThreadedTransportTest, SilentChannelExhaustsRetriesWithDeadline) {
  ThreadedTransport net(2, FastOptions());
  const Result<Transport::Payload> received = net.Receive(0, 1);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(net.Snapshot().receive_timeouts, 3u);  // 1 try + 2 retries.
}

TEST(ThreadedTransportTest, CrashedPartyMidMulFailsWithUnavailable) {
  // Party 2 crashes after the two input rounds; the Mul that follows cannot
  // gather its re-shares and must fail gracefully instead of aborting.
  ThreadedTransportOptions options = FastOptions();
  options.max_retries = 1;
  options.faults.crash_party = 2;
  options.faults.crash_after_rounds = 2;
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

TEST(ThreadedTransportTest, DelayedDeliveryExtendsTheWait) {
  // The injected delay exceeds the receive timeout; because the message is
  // known to be in flight, the receive waits it out instead of timing out.
  ThreadedTransportOptions options = FastOptions();
  options.faults.all_links.delay_mean_seconds = 0.03;
  ThreadedTransport net(2, options);

  net.Send(0, 1, {5});
  const Result<Transport::Payload> received = net.Receive(0, 1);
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received.ValueOrDie(), (Transport::Payload{5}));
  const TransportStats snapshot = net.Snapshot();
  EXPECT_EQ(snapshot.delays_injected, 1u);
  EXPECT_EQ(snapshot.receive_timeouts, 0u);
}

TEST(ThreadedTransportTest, ReorderedMessagesJumpTheQueue) {
  ThreadedTransportOptions options = FastOptions();
  options.faults.all_links.reorder_probability = 1.0;
  ThreadedTransport net(2, options);

  net.Send(0, 1, {1});  // Queue empty: nothing to jump ahead of.
  net.Send(0, 1, {2});  // Reordered in front of {1}.
  EXPECT_EQ(net.Receive(0, 1).ValueOrDie(), (Transport::Payload{2}));
  EXPECT_EQ(net.Receive(0, 1).ValueOrDie(), (Transport::Payload{1}));
  EXPECT_EQ(net.Snapshot().reorders_injected, 1u);
}

TEST(ThreadedTransportTest, BoundedMailboxExertsBackpressure) {
  ThreadedTransportOptions options = FastOptions();
  options.mailbox_capacity = 1;
  ThreadedTransport net(2, options);

  net.Send(0, 1, {1});  // Fills the channel.
  std::atomic<bool> drained{false};
  std::thread receiver([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    drained.store(true);
    EXPECT_EQ(net.Receive(0, 1).ValueOrDie(), (Transport::Payload{1}));
    EXPECT_EQ(net.Receive(0, 1).ValueOrDie(), (Transport::Payload{2}));
  });
  net.Send(0, 1, {2});  // Must block until the receiver drains {1}.
  EXPECT_TRUE(drained.load());
  receiver.join();
}

TEST(ThreadedTransportTest, ResetDrainsQueuesAndRetransmissions) {
  ThreadedTransportOptions options = FastOptions();
  options.faults.all_links.drop_probability = 1.0;
  ThreadedTransport net(2, options);
  net.Send(0, 1, {1});  // Dropped: parked for retransmission.

  ThreadedTransport clean(2, FastOptions());
  clean.Send(0, 1, {1});
  clean.Send(1, 0, {2});
  clean.EndRound();
  EXPECT_EQ(clean.Reset(), 2u);
  EXPECT_EQ(clean.stats().messages, 0u);
  EXPECT_EQ(clean.completed_rounds(), 0u);
  EXPECT_EQ(net.Reset(), 1u);  // The parked retransmission counts too.
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

TEST(ThreadedTransportTest, SqmPipelineSurvivesDropsAndMatchesLockstep) {
  // End to end: the full SQM release over BGW on a lossy threaded transport
  // must reconstruct exactly the values the deterministic lock-step
  // simulation releases — retries make the loss invisible to the protocol.
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial::Power(1.0, 0, 3));
  p.AddTerm(Monomial(1.5, {{1, 1}, {2, 1}}));
  f.AddDimension(p);
  Matrix x{{0.2, -0.3, 0.4}, {0.5, 0.1, -0.2}, {-0.4, 0.6, 0.3}};

  SqmOptions options;
  options.gamma = 512.0;
  options.mu = 0.0;
  options.backend = MpcBackend::kBgw;
  options.max_f_l2 = 4.0;
  const SqmReport lockstep =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();

  options.transport = TransportMode::kThreaded;
  options.threaded = FastOptions();
  options.threaded.max_retries = 6;
  options.threaded.faults.all_links.drop_probability = 0.1;
  const SqmReport threaded =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();

  EXPECT_EQ(threaded.raw, lockstep.raw);
  EXPECT_EQ(threaded.estimate, lockstep.estimate);
  // Loss shows up in the transport report, not the release.
  EXPECT_GT(threaded.transport.drops_injected, 0u);
  EXPECT_EQ(threaded.transport.retries, threaded.transport.drops_injected);
  EXPECT_GT(threaded.transport.wall_seconds, 0.0);
  EXPECT_EQ(threaded.network.messages,
            lockstep.network.messages + threaded.transport.retries);
}

}  // namespace
}  // namespace sqm
