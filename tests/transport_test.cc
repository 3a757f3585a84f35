// Tests of the lock-step transport and the accounting layer shared by all
// Transport implementations: the default wire width is the field's,
// out-of-order channel draining, per-channel and per-phase
// breakdowns, configurable wire widths, Reset's dropped-message report,
// and a crash schedule failing a Mul with its losses counted.

#include "net/lockstep.h"

#include <gtest/gtest.h>

#include <vector>

#include "mpc/bgw.h"
#include "mpc/field.h"
#include "mpc/shamir.h"

namespace sqm {
namespace {

// Runs the same small BGW program (input sharing from every party, one Mul,
// one Open) and returns the opened values alongside the transport's final
// counters.
struct ProgramResult {
  std::vector<int64_t> opened;
  NetworkStats stats;
  double simulated_seconds = 0.0;
};

ProgramResult RunBgwProgram(Transport* network) {
  const size_t n = network->num_parties();
  BgwEngine engine(ShamirScheme(n, (n - 1) / 2), network, 1234);
  Circuit circuit;
  const Circuit::WireId a0 = circuit.AddInput(0);
  const Circuit::WireId a1 = circuit.AddInput(0);
  circuit.MarkOutput(circuit.AddMul(a0, circuit.AddInput(1)));
  circuit.MarkOutput(circuit.AddMul(a1, circuit.AddInput(1)));
  std::vector<std::vector<int64_t>> inputs(n);
  inputs[0] = {3, -4};
  inputs[1] = {-5, 6};
  ProgramResult result;
  result.opened = engine.Evaluate(circuit, inputs).ValueOrDie();
  result.stats = network->stats();
  result.simulated_seconds = network->SimulatedSeconds();
  return result;
}

TEST(LockstepTransportTest, BgwDefaultWidthMatchesFieldWidthExactly) {
  // LockstepTransport(n, latency) is the paper's simulated network: its
  // default element width is the field's serialized width, so it must
  // agree bit for bit with an explicit Field::kWireBytes transport —
  // identical openings, message counts, round counts, byte counts, clock.
  LockstepTransport field_width(5, 0.1, Field::kWireBytes);
  LockstepTransport default_width(5, 0.1);
  const ProgramResult expected = RunBgwProgram(&field_width);
  const ProgramResult actual = RunBgwProgram(&default_width);

  EXPECT_EQ(actual.opened, expected.opened);
  EXPECT_EQ(actual.opened, (std::vector<int64_t>{-15, -24}));
  EXPECT_EQ(actual.stats.messages, expected.stats.messages);
  EXPECT_EQ(actual.stats.field_elements, expected.stats.field_elements);
  EXPECT_EQ(actual.stats.rounds, expected.stats.rounds);
  EXPECT_EQ(actual.stats.bytes(), expected.stats.bytes());
  EXPECT_DOUBLE_EQ(actual.simulated_seconds, expected.simulated_seconds);
}

TEST(LockstepTransportTest, OutOfOrderReceiveAcrossChannels) {
  // Per-channel FIFO only: channels can be drained in any order relative to
  // each other, as BGW's receive loops do.
  LockstepTransport net(3, 0.0, Field::kWireBytes);
  net.Send(0, 2, {1});
  net.Send(1, 2, {2});
  net.Send(2, 2, {3});
  EXPECT_EQ(net.Receive(2, 2).ValueOrDie(), (Transport::Payload{3}));
  EXPECT_EQ(net.Receive(0, 2).ValueOrDie(), (Transport::Payload{1}));
  EXPECT_EQ(net.Receive(1, 2).ValueOrDie(), (Transport::Payload{2}));
}

TEST(LockstepTransportTest, HasPendingAfterPartialRound) {
  // Mid-round state: after draining only some channels, HasPending must
  // report exactly the undrained ones.
  LockstepTransport net(3, 0.0, Field::kWireBytes);
  for (size_t from = 0; from < 3; ++from) net.Send(from, 0, {from});
  net.EndRound();
  ASSERT_TRUE(net.Receive(0, 0).ok());
  EXPECT_FALSE(net.HasPending(0, 0));
  EXPECT_TRUE(net.HasPending(1, 0));
  EXPECT_TRUE(net.HasPending(2, 0));
  ASSERT_TRUE(net.Receive(1, 0).ok());
  ASSERT_TRUE(net.Receive(2, 0).ok());
  EXPECT_FALSE(net.HasPending(1, 0));
  EXPECT_FALSE(net.HasPending(2, 0));
}

TEST(LockstepTransportTest, ResetReportsDroppedMessages) {
  LockstepTransport net(3, 0.0);
  net.Send(0, 1, {1});
  net.Send(0, 1, {2});
  net.Send(2, 0, {3});
  EXPECT_EQ(net.Reset(), 3u);
  EXPECT_FALSE(net.HasPending(0, 1));
  EXPECT_EQ(net.stats().messages, 0u);
  // A clean transport has nothing to drop — and nothing to warn about.
  EXPECT_EQ(net.Reset(), 0u);
}

TEST(LockstepTransportTest, CrashedPartyMidMulFailsWithUnavailable) {
  // Party 2 crashes after the two input rounds; the Mul that follows cannot
  // gather its re-shares and must fail gracefully instead of aborting.
  LockstepTransport net(3, 0.0);
  net.ScheduleCrashes({{2, 2}});

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

TEST(LockstepTransportTest, PerChannelAccounting) {
  LockstepTransport net(3, 0.0, Field::kWireBytes);
  net.Send(0, 1, {1, 2});
  net.Send(0, 1, {3});
  net.Send(2, 0, {4});
  net.Send(1, 1, {5});  // Self-send: delivered, never counted.

  const TransportStats snapshot = net.Snapshot();
  ASSERT_EQ(snapshot.channels.size(), 2u);
  EXPECT_EQ(snapshot.channels[0].from, 0u);
  EXPECT_EQ(snapshot.channels[0].to, 1u);
  EXPECT_EQ(snapshot.channels[0].messages, 2u);
  EXPECT_EQ(snapshot.channels[0].field_elements, 3u);
  EXPECT_EQ(snapshot.channels[0].wire_bytes, 3 * Field::kWireBytes);
  EXPECT_EQ(snapshot.channels[1].from, 2u);
  EXPECT_EQ(snapshot.channels[1].to, 0u);
  EXPECT_EQ(snapshot.channels[1].messages, 1u);

  // Channel counters partition the totals.
  uint64_t channel_messages = 0;
  uint64_t channel_elements = 0;
  for (const ChannelStats& channel : snapshot.channels) {
    channel_messages += channel.messages;
    channel_elements += channel.field_elements;
  }
  EXPECT_EQ(channel_messages, snapshot.totals.messages);
  EXPECT_EQ(channel_elements, snapshot.totals.field_elements);
}

TEST(LockstepTransportTest, PhaseAccountingTracksProtocolPhases) {
  LockstepTransport net(4, 0.0, Field::kWireBytes);
  RunBgwProgram(&net);

  const TransportStats snapshot = net.Snapshot();
  std::vector<std::string> labels;
  uint64_t phase_messages = 0;
  for (const PhaseStats& phase : snapshot.phases) {
    labels.push_back(phase.phase);
    phase_messages += phase.traffic.messages;
  }
  // Two input sharings, one Mul, one Open — in first-use order.
  EXPECT_EQ(labels, (std::vector<std::string>{"input", "mul", "open"}));
  // Every message belongs to exactly one phase.
  EXPECT_EQ(phase_messages, snapshot.totals.messages);
  // Input: 2 sharings of (n-1) cross-party sends; Mul and Open: n*(n-1).
  EXPECT_EQ(snapshot.phases[0].traffic.messages, 2u * 3u);
  EXPECT_EQ(snapshot.phases[1].traffic.messages, 4u * 3u);
  EXPECT_EQ(snapshot.phases[2].traffic.messages, 4u * 3u);
}

TEST(LockstepTransportTest, PhaseScopeRestoresPreviousLabel) {
  LockstepTransport net(2, 0.0, Field::kWireBytes);
  net.SetPhase("outer");
  {
    PhaseScope inner(&net, "inner");
    EXPECT_EQ(net.phase(), "inner");
    net.Send(0, 1, {1});
  }
  EXPECT_EQ(net.phase(), "outer");
  net.Send(0, 1, {2});
  const TransportStats snapshot = net.Snapshot();
  ASSERT_EQ(snapshot.phases.size(), 2u);
  EXPECT_EQ(snapshot.phases[0].phase, "outer");
  EXPECT_EQ(snapshot.phases[1].phase, "inner");
  EXPECT_EQ(snapshot.phases[0].traffic.messages, 1u);
  EXPECT_EQ(snapshot.phases[1].traffic.messages, 1u);
  // Null transport is tolerated (protocol code without accounting).
  { PhaseScope no_op(nullptr, "ignored"); }
}

TEST(LockstepTransportTest, WireBytesFollowConfiguredElementWidth) {
  // Byte accounting uses the serialized element width handed to the
  // transport, not sizeof(Element): a 4-byte wire format yields 4-byte
  // accounting on the same payloads.
  LockstepTransport narrow(2, 0.0, /*element_wire_bytes=*/4);
  narrow.Send(0, 1, {1, 2, 3});
  EXPECT_EQ(narrow.stats().bytes(), 12u);

  // The 61-bit field needs ceil(61/8) = 8 bytes per element; that this
  // coincides with sizeof(Element) is an accident of the Mersenne prime.
  static_assert(Field::kWireBytes == (61 + 7) / 8);
  LockstepTransport net(2, 0.0);
  net.Send(0, 1, {1, 2, 3});
  EXPECT_EQ(net.stats().bytes(), 3 * Field::kWireBytes);
}

TEST(LockstepTransportTest, SnapshotCarriesClocksAndParties) {
  LockstepTransport net(3, 0.25, Field::kWireBytes);
  net.EndRound();
  net.EndRound();
  const TransportStats snapshot = net.Snapshot();
  EXPECT_EQ(snapshot.num_parties, 3u);
  EXPECT_EQ(snapshot.totals.rounds, 2u);
  EXPECT_DOUBLE_EQ(snapshot.simulated_seconds, 0.5);
  EXPECT_GE(snapshot.wall_seconds, 0.0);
  // Lock-step transports never inject faults.
  EXPECT_EQ(snapshot.drops_injected, 0u);
  EXPECT_EQ(snapshot.retries, 0u);
  EXPECT_EQ(snapshot.receive_timeouts, 0u);
}

}  // namespace
}  // namespace sqm
