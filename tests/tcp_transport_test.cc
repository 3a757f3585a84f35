// TcpTransport over real loopback sockets, three transports in one
// process (the same adoption path the coordinator uses: pre-bound port-0
// listeners handed over by fd, so no test run can lose a bind race).
// Verifies the Transport seam contract — delivery, ordering, self-sends,
// the counting convention, Reset drain — plus the TCP-only surface:
// graceful goodbye vs. timeout, PeerDead, and prompt teardown.

#include "net/tcp/tcp_transport.h"

#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/tcp/frame.h"
#include "net/tcp/socket.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace {

using sqm::net::AcceptWithDeadline;
using sqm::net::ListenOn;
using sqm::net::LocalPort;
using sqm::net::Socket;
using sqm::net::ConnectTo;
using sqm::net::TcpSupported;
using sqm::TcpPeer;
using sqm::TcpTransport;
using sqm::TcpTransportOptions;
using Payload = sqm::Transport::Payload;
using Clock = std::chrono::steady_clock;

/// Milliseconds one transport's Shutdown() takes.
double ShutdownMillis(TcpTransport& transport) {
  const Clock::time_point start = Clock::now();
  transport.Shutdown();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Reads one length-prefixed frame off `sock` and verifies it under `key`.
sqm::Result<sqm::net::Frame> ReadFrame(const Socket& sock, uint64_t key) {
  uint8_t len_bytes[4];
  SQM_RETURN_NOT_OK(sqm::net::ReadAll(sock, len_bytes, 4));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(len_bytes[i]) << (8 * i);
  }
  std::vector<uint8_t> body(len);
  SQM_RETURN_NOT_OK(sqm::net::ReadAll(sock, body.data(), len));
  return sqm::net::DecodeFrame(body.data(), len, key);
}

/// Builds an n-party localhost mesh. Listeners are pre-bound on port 0
/// and adopted via listen_fd; Create blocks until the mesh is up, so the
/// n transports must be created concurrently.
std::vector<std::unique_ptr<TcpTransport>> MakeMesh(
    size_t n, double receive_timeout_seconds) {
  std::vector<Socket> listeners;
  std::vector<TcpPeer> roster(n);
  for (size_t i = 0; i < n; ++i) {
    sqm::Result<Socket> listener = ListenOn("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    sqm::Result<uint16_t> port = LocalPort(listener.ValueOrDie());
    EXPECT_TRUE(port.ok()) << port.status().ToString();
    roster[i] = {"127.0.0.1", port.ValueOrDie()};
    listeners.push_back(std::move(listener.ValueOrDie()));
  }

  std::vector<std::unique_ptr<TcpTransport>> transports(n);
  std::vector<std::string> errors(n);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    TcpTransportOptions options;
    options.local_party = i;
    options.peers = roster;
    options.session_key = 0xfeedfacecafeull;
    options.run_id = 9;
    options.receive_timeout_seconds = receive_timeout_seconds;
    options.connect_timeout_seconds = 10.0;
    options.max_reconnect_attempts = 2;
    options.reconnect_backoff_seconds = 0.05;
    options.listen_fd = listeners[i].Release();
    threads.emplace_back([&transports, &errors, options, i] {
      sqm::Result<std::unique_ptr<TcpTransport>> transport =
          TcpTransport::Create(options);
      if (transport.ok()) {
        transports[i] = std::move(transport.ValueOrDie());
      } else {
        errors[i] = transport.status().ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NE(transports[i], nullptr)
        << "party " << i << " mesh setup failed: " << errors[i];
  }
  return transports;
}

class TcpTransportTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
    mesh_ = MakeMesh(3, /*receive_timeout_seconds=*/0.3);
    for (const auto& transport : mesh_) {
      ASSERT_NE(transport, nullptr);
    }
  }

  void TearDown() override {
    for (const auto& transport : mesh_) {
      if (transport) transport->Shutdown();
    }
  }

  std::vector<std::unique_ptr<TcpTransport>> mesh_;
};

TEST_F(TcpTransportTest, DeliversAcrossSocketsInOrder) {
  mesh_[0]->Send(0, 1, {1, 2, 3});
  mesh_[0]->Send(0, 1, {4});
  sqm::Result<Payload> first = mesh_[1]->Receive(0, 1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie(), Payload({1, 2, 3}));
  sqm::Result<Payload> second = mesh_[1]->Receive(0, 1);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.ValueOrDie(), Payload({4}));
}

TEST_F(TcpTransportTest, SelfSendBypassesTheWire) {
  mesh_[2]->Send(2, 2, {7, 8});
  ASSERT_TRUE(mesh_[2]->HasPending(2, 2));
  sqm::Result<Payload> got = mesh_[2]->Receive(2, 2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie(), Payload({7, 8}));
  // Counting convention: self-sends appear in no statistic.
  EXPECT_EQ(mesh_[2]->stats().messages, 0u);
  EXPECT_EQ(mesh_[2]->stats().wire_bytes, 0u);
}

TEST_F(TcpTransportTest, SendsCountAtTheSenderReceivesNever) {
  mesh_[0]->Send(0, 1, {1, 2, 3});
  mesh_[0]->Send(0, 2, {4, 5});
  sqm::Result<Payload> got = mesh_[1]->Receive(0, 1);
  ASSERT_TRUE(got.ok());

  const sqm::NetworkStats sender = mesh_[0]->stats();
  EXPECT_EQ(sender.messages, 2u);
  EXPECT_EQ(sender.field_elements, 5u);
  EXPECT_EQ(sender.wire_bytes, 5u * mesh_[0]->element_wire_bytes());
  // The receiving side records nothing for deliveries.
  EXPECT_EQ(mesh_[1]->stats().messages, 0u);
  EXPECT_EQ(mesh_[2]->stats().messages, 0u);
}

TEST_F(TcpTransportTest, ReceiveTimesOutWhenNothingArrives) {
  sqm::Result<Payload> got = mesh_[0]->Receive(1, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), sqm::StatusCode::kDeadlineExceeded);
}

TEST_F(TcpTransportTest, ResetDrainsPendingAndZeroesCounters) {
  mesh_[0]->Send(0, 1, {1});
  mesh_[0]->Send(0, 1, {2});
  // Wait until both frames are actually in party 1's inbox.
  while (!mesh_[1]->HasPending(0, 1)) {
    std::this_thread::yield();
  }
  sqm::Result<Payload> got = mesh_[1]->Receive(0, 1);
  ASSERT_TRUE(got.ok());
  while (!mesh_[1]->HasPending(0, 1)) {
    std::this_thread::yield();
  }
  EXPECT_EQ(mesh_[1]->Reset(), 1u);
  EXPECT_FALSE(mesh_[1]->HasPending(0, 1));
  EXPECT_EQ(mesh_[0]->Reset(), 0u);
  EXPECT_EQ(mesh_[0]->stats().messages, 0u);
}

TEST_F(TcpTransportTest, GracefulGoodbyeMarksPeerDeparted) {
  mesh_[2]->Shutdown();
  // After the goodbye frame lands, receives from party 2 fail
  // kUnavailable (positively dead) rather than kDeadlineExceeded
  // (might still arrive), and PeerDead turns true.
  sqm::Result<Payload> got = mesh_[0]->Receive(2, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), sqm::StatusCode::kUnavailable);
  EXPECT_TRUE(mesh_[0]->PeerDead(2));
  // Party 1 learns the same way once it looks at the link.
  sqm::Result<Payload> other = mesh_[1]->Receive(2, 1);
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), sqm::StatusCode::kUnavailable);
  EXPECT_TRUE(mesh_[1]->PeerDead(2));

  // The surviving pair keeps working.
  mesh_[0]->Send(0, 1, {11});
  sqm::Result<Payload> alive = mesh_[1]->Receive(0, 1);
  ASSERT_TRUE(alive.ok());
  EXPECT_EQ(alive.ValueOrDie(), Payload({11}));
}

TEST_F(TcpTransportTest, MessagesSentBeforeGoodbyeStillDeliver) {
  mesh_[2]->Send(2, 0, {31, 32});
  mesh_[2]->Shutdown();
  sqm::Result<Payload> got = mesh_[0]->Receive(2, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.ValueOrDie(), Payload({31, 32}));
}

TEST_F(TcpTransportTest, ShutdownDoesNotWaitOutTheAcceptPoll) {
  // Party 0 runs an acceptor blocked in a 250 ms accept poll; shutting
  // the listener down must wake it instead of waiting the poll out.
  EXPECT_LT(ShutdownMillis(*mesh_[0]), 100.0);
}

/// Remote ports of the TIME_WAIT entries in /proc/net/tcp whose local port
/// is `port`; nullopt where the table cannot be read.
std::optional<std::set<unsigned long>> TimeWaitRemotesOn(uint16_t port) {
  std::ifstream table("/proc/net/tcp");
  if (!table) return std::nullopt;
  const auto port_of = [](const std::string& address) {
    return std::stoul(address.substr(address.find(':') + 1), nullptr, 16);
  };
  std::set<unsigned long> remotes;
  std::string line;
  std::getline(table, line);  // Header.
  while (std::getline(table, line)) {
    std::istringstream fields(line);
    std::string slot, local, remote, state;
    fields >> slot >> local >> remote >> state;
    if (state == "06" && port_of(local) == port) {  // TCP_TIME_WAIT.
      remotes.insert(port_of(remote));
    }
  }
  return remotes;
}

TEST_F(TcpTransportTest, TimeWaitStaysOffTheListenerPort) {
  // Party 0 only accepts. Even when it shuts down first, its links must
  // close from the dialing side, so their TIME_WAIT entries sit on the
  // dialers' ephemeral ports and none on party 0's listener port. Entries
  // already there belong to earlier connections (a port-0 listener may
  // share its port with them) and are left out.
  const uint16_t listener = mesh_[0]->listen_port();
  const std::optional<std::set<unsigned long>> before =
      TimeWaitRemotesOn(listener);
  if (!before.has_value()) GTEST_SKIP() << "/proc/net/tcp not readable";
  for (const auto& transport : mesh_) transport->Shutdown();
  const std::optional<std::set<unsigned long>> after =
      TimeWaitRemotesOn(listener);
  ASSERT_TRUE(after.has_value());
  for (unsigned long remote : *after) {
    EXPECT_EQ(before->count(remote), 1u)
        << "TIME_WAIT on listener port " << listener << " toward port "
        << remote;
  }
}

TEST(TcpTransportMesh, LinkUpIsATraceInstantPerPeer) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  if (!sqm::obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  sqm::obs::SetEnabled(true);
  sqm::obs::Tracer::Global().Clear();
  auto mesh = MakeMesh(3, 0.3);
  for (const auto& transport : mesh) ASSERT_NE(transport, nullptr);
  for (const auto& transport : mesh) transport->Shutdown();

  // Every party links to both others, so each peer index shows up in two
  // net.link_up instants (one per transport that connected to it).
  std::map<int64_t, int> link_ups_by_peer;
  for (const sqm::obs::TraceEvent& event :
       sqm::obs::Tracer::Global().Collect()) {
    if (std::string(event.name) != "net.link_up") continue;
    EXPECT_EQ(event.type, sqm::obs::TraceEvent::Type::kInstant);
    ASSERT_EQ(event.num_args, 1);
    EXPECT_STREQ(event.args[0].key, "peer");
    ++link_ups_by_peer[event.args[0].value];
  }
  EXPECT_EQ(link_ups_by_peer, (std::map<int64_t, int>{{0, 2}, {1, 2}, {2, 2}}));
}

TEST(TcpTransportMesh, FivePartyMeshComesUp) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  auto mesh = MakeMesh(5, 0.3);
  for (const auto& transport : mesh) ASSERT_NE(transport, nullptr);
  // Every ordered pair exchanges one message.
  for (size_t from = 0; from < 5; ++from) {
    for (size_t to = 0; to < 5; ++to) {
      mesh[from]->Send(from, to, {from * 10 + to});
    }
  }
  for (size_t from = 0; from < 5; ++from) {
    for (size_t to = 0; to < 5; ++to) {
      sqm::Result<Payload> got = mesh[to]->Receive(from, to);
      ASSERT_TRUE(got.ok()) << "(" << from << "->" << to << "): "
                            << got.status().ToString();
      EXPECT_EQ(got.ValueOrDie(), Payload({from * 10 + to}));
    }
  }
  for (const auto& transport : mesh) transport->Shutdown();
}

// ---------------------------------------------------------------------------
// Rejoin protocol: replay rejection across incarnations.
//
// The restarted-party handshake resets the per-link sequence space, which
// is exactly the window a replay attack would aim for: capture a data
// frame before the crash, present it after the rejoin when last_recv_seq
// is back to 0. The incarnation field (MAC-covered, tcp_frame_test) must
// close that window. The crashing peer is driven over raw sockets
// speaking the wire protocol, because a real TcpTransport says goodbye in
// its destructor — kill -9 never does.
// ---------------------------------------------------------------------------

class FakePeerRejoinTest : public testing::Test {
 protected:
  static constexpr uint64_t kKey = 0x5eed5e551044ull;
  static constexpr uint64_t kRunId = 77;

  void SetUp() override {
    if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
    sqm::Result<Socket> listener = ListenOn("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    sqm::Result<uint16_t> port = LocalPort(listener.ValueOrDie());
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = port.ValueOrDie();

    TcpTransportOptions options;
    options.local_party = 0;
    // Party 1 is the fake peer; by the acceptor convention (higher index
    // dials lower) party 0 never dials it, so its roster port is unused.
    options.peers = {{"127.0.0.1", port_}, {"127.0.0.1", 1}};
    options.session_key = kKey;
    options.run_id = kRunId;
    options.receive_timeout_seconds = 0.5;
    options.connect_timeout_seconds = 10.0;
    options.max_reconnect_attempts = 2;
    options.reconnect_backoff_seconds = 0.05;
    // Generous rejoin allowance so the link waits for our staged
    // reconnects instead of declaring the fake peer dead mid-test.
    options.rejoin_window_seconds = 20.0;
    options.listen_fd = listener.ValueOrDie().Release();

    // Create blocks until the mesh is up (fake party 1's first handshake).
    creator_ = std::thread([this, options] {
      sqm::Result<std::unique_ptr<TcpTransport>> transport =
          TcpTransport::Create(options);
      if (transport.ok()) {
        transport_ = std::move(transport.ValueOrDie());
      } else {
        error_ = transport.status().ToString();
      }
    });
  }

  void TearDown() override {
    if (creator_.joinable()) creator_.join();
    if (transport_) transport_->Shutdown();
  }

  /// Dials party 0 as party 1 and completes the hello/ack handshake under
  /// `incarnation`. Returns the connected socket.
  Socket Handshake(uint32_t incarnation) {
    sqm::Result<Socket> dial = ConnectTo(
        "127.0.0.1", port_,
        std::chrono::steady_clock::now() + std::chrono::seconds(5));
    EXPECT_TRUE(dial.ok()) << dial.status().ToString();
    Socket sock = std::move(dial.ValueOrDie());

    sqm::net::Frame hello;
    hello.type = sqm::net::FrameType::kHello;
    hello.from = 1;
    hello.to = 0;
    hello.incarnation = incarnation;
    hello.run_id = kRunId;
    const std::vector<uint8_t> wire = sqm::net::EncodeFrame(hello, kKey);
    EXPECT_TRUE(sqm::net::WriteAll(sock, wire.data(), wire.size()).ok());

    sqm::Result<sqm::net::Frame> ack = ReadFrame(sock, kKey);
    EXPECT_TRUE(ack.ok()) << ack.status().ToString();
    if (ack.ok()) {
      EXPECT_EQ(ack.ValueOrDie().type, sqm::net::FrameType::kHelloAck);
      EXPECT_EQ(ack.ValueOrDie().from, 0u);
      EXPECT_EQ(ack.ValueOrDie().to, 1u);
    }
    return sock;
  }

  /// Encoded wire bytes of a party-1 -> party-0 data frame.
  std::vector<uint8_t> DataFrame(uint32_t incarnation, uint64_t seq,
                                 uint64_t word) {
    sqm::net::Frame frame;
    frame.type = sqm::net::FrameType::kData;
    frame.from = 1;
    frame.to = 0;
    frame.incarnation = incarnation;
    frame.seq = seq;
    frame.run_id = kRunId;
    frame.phase = "mul";
    frame.payload = {word};
    return sqm::net::EncodeFrame(frame, kKey);
  }

  uint16_t port_ = 0;
  std::unique_ptr<TcpTransport> transport_;
  std::string error_;
  std::thread creator_;
};

TEST_F(FakePeerRejoinTest, ReplayedPreCrashFrameIsRejectedAfterRejoin) {
  Socket first = Handshake(/*incarnation=*/0);
  creator_.join();
  ASSERT_NE(transport_, nullptr) << error_;

  // Incarnation 0 delivers normally.
  const std::vector<uint8_t> fresh = DataFrame(0, /*seq=*/1, 5);
  ASSERT_TRUE(sqm::net::WriteAll(first, fresh.data(), fresh.size()).ok());
  sqm::Result<Payload> got = transport_->Receive(1, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.ValueOrDie(), Payload({5}));

  // "Capture" the next frame the old incarnation would have sent, then
  // crash: abrupt close, no goodbye. The link goes down, not dead.
  const std::vector<uint8_t> captured = DataFrame(0, /*seq=*/2, 6);
  first.Close();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(transport_->PeerDead(1));

  // Rejoin as incarnation 1. The handshake resets the replay state
  // (last_recv_seq back to 0) — the captured frame's seq 2 would sail
  // through a sequence-only check. Replay it.
  Socket rejoined = Handshake(/*incarnation=*/1);
  ASSERT_TRUE(
      sqm::net::WriteAll(rejoined, captured.data(), captured.size()).ok());

  // The stale-incarnation frame must NOT deliver (the receiver severs the
  // link instead), and the severance is survivable, not a death.
  sqm::Result<Payload> replay = transport_->Receive(1, 0);
  ASSERT_FALSE(replay.ok()) << "pre-crash frame was delivered after rejoin";
  EXPECT_EQ(replay.status().code(), sqm::StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(transport_->PeerDead(1));

  // Reconnect once more under the same incarnation and send a legitimate
  // frame in the new sequence space: the link recovers end to end.
  Socket again = Handshake(/*incarnation=*/1);
  const std::vector<uint8_t> after = DataFrame(1, /*seq=*/1, 7);
  ASSERT_TRUE(sqm::net::WriteAll(again, after.data(), after.size()).ok());
  sqm::Result<Payload> post = transport_->Receive(1, 0);
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_EQ(post.ValueOrDie(), Payload({7}));
  EXPECT_FALSE(transport_->PeerDead(1));
}

TEST_F(FakePeerRejoinTest, StaleIncarnationHandshakeIsRefused) {
  Socket first = Handshake(/*incarnation=*/1);
  creator_.join();
  ASSERT_NE(transport_, nullptr) << error_;
  first.Close();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // A zombie process from before the restart (incarnation 0 < 1) dials
  // in: the acceptor must refuse the hello — no ack, just a dead socket.
  sqm::Result<Socket> dial = ConnectTo(
      "127.0.0.1", port_,
      std::chrono::steady_clock::now() + std::chrono::seconds(5));
  ASSERT_TRUE(dial.ok()) << dial.status().ToString();
  Socket zombie = std::move(dial.ValueOrDie());
  sqm::net::Frame hello;
  hello.type = sqm::net::FrameType::kHello;
  hello.from = 1;
  hello.to = 0;
  hello.incarnation = 0;
  hello.run_id = kRunId;
  const std::vector<uint8_t> wire = sqm::net::EncodeFrame(hello, kKey);
  ASSERT_TRUE(sqm::net::WriteAll(zombie, wire.data(), wire.size()).ok());

  uint8_t len_bytes[4];
  EXPECT_FALSE(sqm::net::ReadAll(zombie, len_bytes, 4).ok())
      << "acceptor acked a stale-incarnation hello";

  // The real incarnation can still come back afterwards.
  Socket back = Handshake(/*incarnation=*/1);
  const std::vector<uint8_t> frame = DataFrame(1, /*seq=*/1, 9);
  ASSERT_TRUE(sqm::net::WriteAll(back, frame.data(), frame.size()).ok());
  sqm::Result<Payload> got = transport_->Receive(1, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.ValueOrDie(), Payload({9}));
}

TEST_F(FakePeerRejoinTest, ShutdownWithThePeerGoneIsPrompt) {
  Socket first = Handshake(/*incarnation=*/0);
  creator_.join();
  ASSERT_NE(transport_, nullptr) << error_;
  // The peer vanishes without a goodbye: the link is down and party 0's
  // acceptor waits for a rejoin inside the 20 s window.
  first.Close();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_FALSE(transport_->PeerDead(1));
  EXPECT_LT(ShutdownMillis(*transport_), 100.0);
}

TEST(TcpTransportTeardown, ShutdownDuringReconnectBackoffIsPrompt) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  constexpr uint64_t kKey = 0xbac0ffull;
  constexpr uint64_t kRunId = 78;
  // A fake party 0 over a raw listener; the real party 1 dials it (the
  // higher index dials the lower), so party 1 owns the reconnects.
  sqm::Result<Socket> fake = ListenOn("127.0.0.1", 0);
  sqm::Result<Socket> own = ListenOn("127.0.0.1", 0);
  ASSERT_TRUE(fake.ok() && own.ok());
  TcpTransportOptions options;
  options.local_party = 1;
  options.peers = {{"127.0.0.1", LocalPort(fake.ValueOrDie()).ValueOrDie()},
                   {"127.0.0.1", LocalPort(own.ValueOrDie()).ValueOrDie()}};
  options.session_key = kKey;
  options.run_id = kRunId;
  options.connect_timeout_seconds = 10.0;
  // Every backoff sleep lasts 0.25-0.5 s, inside a 20 s rejoin window.
  options.reconnect_backoff_seconds = 0.5;
  options.rejoin_window_seconds = 20.0;
  options.listen_fd = own.ValueOrDie().Release();

  std::unique_ptr<TcpTransport> transport;
  std::thread creator([&transport, options] {
    sqm::Result<std::unique_ptr<TcpTransport>> created =
        TcpTransport::Create(options);
    if (created.ok()) transport = std::move(created.ValueOrDie());
  });
  sqm::Result<Socket> accepted = AcceptWithDeadline(
      fake.ValueOrDie(), Clock::now() + std::chrono::seconds(5));
  if (accepted.ok()) {
    // Answer the hello as party 0's acceptor would.
    sqm::Result<sqm::net::Frame> hello =
        ReadFrame(accepted.ValueOrDie(), kKey);
    EXPECT_TRUE(hello.ok()) << hello.status().ToString();
    sqm::net::Frame ack;
    ack.type = sqm::net::FrameType::kHelloAck;
    ack.from = 0;
    ack.to = 1;
    ack.run_id = kRunId;
    const std::vector<uint8_t> wire = sqm::net::EncodeFrame(ack, kKey);
    EXPECT_TRUE(sqm::net::WriteAll(accepted.ValueOrDie(), wire.data(),
                                   wire.size())
                    .ok());
  }
  // Joined before any ASSERT: a failed handshake makes Create give up
  // when its connect window closes.
  creator.join();
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  ASSERT_NE(transport, nullptr);

  // Party 0 vanishes, listener and all: every redial is refused and the
  // dialer sits in its backoff sleep.
  accepted.ValueOrDie().Close();
  fake.ValueOrDie().Close();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_FALSE(transport->PeerDead(0));
  EXPECT_LT(ShutdownMillis(*transport), 100.0);
}

}  // namespace
