#include "net/tcp/tcp_transport.h"

#include <algorithm>
#include <utility>

#include "core/logging.h"
#include "obs/trace.h"

namespace sqm {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// Track ids for the per-link reader threads: track kRecvTrackBase + peer.
/// Exactly one reader owns a link at a time, so recv spans on one track
/// never overlap (party tracks are 0..n-1, anonymous threads >= 1000).
constexpr int32_t kRecvTrackBase = 100;

/// Link-state instant (net.link_up / net.link_down / net.link_dead) with
/// the peer index as its one argument.
void TraceLink(const char* name, size_t peer) {
  obs::Tracer::Global().Instant(name, "net",
                                {{"peer", static_cast<int64_t>(peer)}});
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// SplitMix64 finalizer: stateless deterministic hashing for backoff
/// jitter and chaos decisions (not protocol randomness — those streams
/// live in sampling/rng.h and never touch the transport).
uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Maps a hash word to [0, 1).
double UnitDouble(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// The 4-byte little-endian length prefix of a frame on the stream.
uint32_t FrameLength(const uint8_t bytes[4]) {
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(bytes[i]) << (8 * i);
  }
  return len;
}

/// Reads and decodes one payload-free handshake frame (`what` names it in
/// the length error). Socket failures keep their own codes; a bad length
/// or a frame that fails to decode is kIntegrityViolation.
Result<Frame> ReadHandshakeFrame(const Socket& sock, uint64_t session_key,
                                 const char* what) {
  uint8_t len_bytes[4];
  SQM_RETURN_NOT_OK(ReadAll(sock, len_bytes, 4));
  const uint32_t len = FrameLength(len_bytes);
  if (len < 8 || len > MaxEncodedFrameBytes(0)) {
    return Status::IntegrityViolation(std::string(what) + " frame length " +
                                      std::to_string(len) + " out of range");
  }
  std::vector<uint8_t> body(len);
  SQM_RETURN_NOT_OK(ReadAll(sock, body.data(), len));
  return DecodeFrame(body.data(), len, session_key);
}

}  // namespace

TcpTransport::TcpTransport(const TcpTransportOptions& options)
    : Transport(options.peers.size(), /*per_round_latency_seconds=*/0.0,
                kDefaultElementWireBytes),
      options_(options),
      me_(options.local_party) {
  MutexLock lock(mu_);
  links_.resize(options.peers.size());
  inboxes_.resize(options.peers.size());
  links_[me_].state = LinkState::kUp;  // A party's own memory is never down.
  const Clock::time_point now = Clock::now();
  for (Link& link : links_) link.down_since = now;
}

TcpTransport::~TcpTransport() { Shutdown(); }

Result<std::unique_ptr<TcpTransport>> TcpTransport::Create(
    const TcpTransportOptions& options) {
  if (!TcpSupported()) {
    return Status::Unimplemented(
        "TCP transport requires POSIX sockets on this platform");
  }
  const size_t n = options.peers.size();
  if (n < 2) {
    return Status::InvalidArgument(
        "TCP transport needs a roster of >= 2 parties");
  }
  if (options.local_party >= n) {
    return Status::InvalidArgument(
        "local_party " + std::to_string(options.local_party) +
        " outside the " + std::to_string(n) + "-party roster");
  }
  std::unique_ptr<TcpTransport> transport(new TcpTransport(options));
  SQM_RETURN_NOT_OK(transport->Start());
  SQM_RETURN_NOT_OK(transport->WaitMeshUp(
      Clock::now() + Seconds(options.connect_timeout_seconds)));
  return transport;
}

Status TcpTransport::Start() {
  if (options_.listen_fd >= 0) {
    listener_ = Socket(options_.listen_fd);
  } else {
    SQM_ASSIGN_OR_RETURN(
        listener_,
        ListenOn(options_.peers[me_].host, options_.peers[me_].port));
  }
  SQM_ASSIGN_OR_RETURN(listen_port_, LocalPort(listener_));

  const size_t n = options_.peers.size();
  if (me_ + 1 < n) {
    threads_.emplace_back([this] { AcceptorMain(); });
  }
  for (size_t peer = 0; peer < n; ++peer) {
    if (peer == me_) continue;
    if (peer < me_) {
      threads_.emplace_back([this, peer] { DialerMain(peer); });
    } else {
      threads_.emplace_back([this, peer] { AcceptSideMain(peer); });
    }
  }
  return Status::OK();
}

Status TcpTransport::WaitMeshUp(Clock::time_point deadline) {
  MutexLock lock(mu_);
  const bool ready = link_cv_.WaitUntil(mu_, deadline, [this]()
                                            SQM_REQUIRES(mu_) {
    for (size_t peer = 0; peer < links_.size(); ++peer) {
      if (peer == me_) continue;
      if (links_[peer].state == LinkState::kDead) return true;  // Fail fast.
      if (links_[peer].state != LinkState::kUp) return false;
    }
    return true;
  });
  std::string missing;
  for (size_t peer = 0; peer < links_.size(); ++peer) {
    if (peer == me_ || links_[peer].state == LinkState::kUp) continue;
    if (!missing.empty()) missing += ", ";
    missing += std::to_string(peer);
  }
  if (!ready || !missing.empty()) {
    return Status::Unavailable("party " + std::to_string(me_) +
                               " could not establish tcp links to parties [" +
                               missing + "] within " +
                               std::to_string(options_.connect_timeout_seconds) +
                               " s");
  }
  return Status::OK();
}

bool TcpTransport::ShuttingDown() const {
  MutexLock lock(mu_);
  return shutting_down_;
}

void TcpTransport::InstallConn(size_t peer, std::shared_ptr<Conn> conn) {
  MutexLock lock(mu_);
  const bool was_down = links_[peer].state == LinkState::kDown;
  links_[peer].conn = std::move(conn);
  links_[peer].state = LinkState::kUp;
  link_cv_.NotifyAll();
  if (was_down) RecordRetry();  // A successful reconnect is a recovery.
  TraceLink("net.link_up", peer);
}

void TcpTransport::MarkDown(size_t peer) {
  MutexLock lock(mu_);
  if (links_[peer].state != LinkState::kUp &&
      links_[peer].state != LinkState::kConnecting) {
    return;
  }
  links_[peer].state = LinkState::kDown;
  links_[peer].down_since = Clock::now();
  links_[peer].conn.reset();
  link_cv_.NotifyAll();
  TraceLink("net.link_down", peer);
}

void TcpTransport::MarkDead(size_t peer, const char* reason) {
  MutexLock lock(mu_);
  if (links_[peer].state == LinkState::kDead) return;
  links_[peer].state = LinkState::kDead;
  links_[peer].conn.reset();
  link_cv_.NotifyAll();
  recv_cv_.NotifyAll();  // Blocked receives must fail kUnavailable now.
  TraceLink("net.link_dead", peer);
  SQM_LOG(kInfo) << "TcpTransport party " << me_ << ": peer " << peer
                 << " declared dead (" << reason << ")";
}

Status TcpTransport::NoteIncarnation(size_t peer, uint32_t incarnation) {
  MutexLock lock(mu_);
  Link& link = links_[peer];
  if (link.has_peer_incarnation && incarnation < link.peer_incarnation) {
    return Status::IntegrityViolation(
        "peer " + std::to_string(peer) + " presented stale incarnation " +
        std::to_string(incarnation) + " < " +
        std::to_string(link.peer_incarnation));
  }
  if (!link.has_peer_incarnation || incarnation > link.peer_incarnation) {
    // A restarted peer opens a fresh sequence space: flush the replay
    // state so its new frames (seq starting over at 1) are accepted. Any
    // frame captured under the old incarnation can still never land —
    // ReadLoop checks the incarnation on every data frame. An EQUAL
    // incarnation (same process, new socket after a transient reset)
    // keeps the sequence state, so pre-disconnect frames stay replayable
    // to no one.
    link.peer_incarnation = incarnation;
    link.has_peer_incarnation = true;
    link.last_recv_seq = 0;
  }
  return Status::OK();
}

Status TcpTransport::DialHandshake(const std::shared_ptr<Conn>& conn,
                                   size_t peer) {
  SQM_RETURN_NOT_OK(SetRecvTimeout(conn->sock, 2.0));
  Frame hello;
  hello.type = FrameType::kHello;
  hello.from = static_cast<uint32_t>(me_);
  hello.to = static_cast<uint32_t>(peer);
  hello.incarnation = options_.incarnation;
  hello.run_id = options_.run_id;
  const std::vector<uint8_t> wire =
      EncodeFrame(hello, options_.session_key);
  SQM_RETURN_NOT_OK(WriteAll(conn->sock, wire.data(), wire.size()));

  SQM_ASSIGN_OR_RETURN(const Frame ack,
                       ReadHandshakeFrame(conn->sock, options_.session_key,
                                          "handshake ack"));
  if (ack.type != FrameType::kHelloAck || ack.from != peer ||
      ack.to != me_ || ack.run_id != options_.run_id) {
    return Status::IntegrityViolation(
        "handshake ack mismatch from peer " + std::to_string(peer));
  }
  SQM_RETURN_NOT_OK(NoteIncarnation(peer, ack.incarnation));
  return SetRecvTimeout(conn->sock, 0.25);
}

void TcpTransport::AcceptorMain() {
  while (!ShuttingDown()) {
    Result<Socket> accepted = AcceptWithDeadline(
        listener_, Clock::now() + std::chrono::milliseconds(250));
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kDeadlineExceeded) {
        continue;
      }
      if (ShuttingDown() ||
          accepted.status().code() == StatusCode::kUnavailable) {
        return;
      }
      SQM_LOG(kWarning) << "TcpTransport party " << me_
                        << ": accept failed: " << accepted.status();
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->sock = std::move(accepted).ValueOrDie();

    // Handshake: the dialer must present a MAC-verified HELLO naming this
    // run and this recipient before any payload is believed.
    const Status armed = SetRecvTimeout(conn->sock, 2.0);
    if (!armed.ok()) continue;
    Result<Frame> hello = ReadHandshakeFrame(
        conn->sock, options_.session_key, "handshake hello");
    if (!hello.ok()) {
      // A dialer that vanished mid-handshake is not worth a warning.
      if (hello.status().code() == StatusCode::kIntegrityViolation) {
        SQM_LOG(kWarning) << "TcpTransport party " << me_
                          << ": rejected connection: " << hello.status();
      }
      continue;
    }
    const Frame& frame = hello.ValueOrDie();
    const size_t peer = frame.from;
    if (frame.type != FrameType::kHello || frame.run_id != options_.run_id ||
        frame.to != me_ || peer <= me_ || peer >= options_.peers.size()) {
      SQM_LOG(kWarning) << "TcpTransport party " << me_
                        << ": rejected hello (wrong run, role, or party id)";
      continue;
    }
    if (PeerDead(peer)) continue;  // Dead is absorbing; no resurrection.
    const Status noted = NoteIncarnation(peer, frame.incarnation);
    if (!noted.ok()) {
      SQM_LOG(kWarning) << "TcpTransport party " << me_
                        << ": rejected hello: " << noted;
      continue;
    }

    Frame ack;
    ack.type = FrameType::kHelloAck;
    ack.from = static_cast<uint32_t>(me_);
    ack.to = static_cast<uint32_t>(peer);
    ack.incarnation = options_.incarnation;
    ack.run_id = options_.run_id;
    const std::vector<uint8_t> wire =
        EncodeFrame(ack, options_.session_key);
    if (!WriteAll(conn->sock, wire.data(), wire.size()).ok()) continue;
    if (!SetRecvTimeout(conn->sock, 0.25).ok()) continue;
    InstallConn(peer, std::move(conn));
  }
}

void TcpTransport::DialerMain(size_t peer) {
  const TcpPeer& address = options_.peers[peer];
  // Waits out a pause; true when Shutdown (which notifies link_cv_) began.
  const auto pause_unless_shutdown = [this](Clock::duration pause) {
    MutexLock lock(mu_);
    return link_cv_.WaitUntil(mu_, Clock::now() + pause,
                              [this]() SQM_REQUIRES(mu_) {
                                return shutting_down_;
                              });
  };
  // Initial mesh phase: peers start in any order, so refusals are retried
  // until the connect window closes.
  const Clock::time_point initial_deadline =
      Clock::now() + Seconds(options_.connect_timeout_seconds);
  bool established = false;
  while (!ShuttingDown() && !established) {
    auto conn = std::make_shared<Conn>();
    Result<Socket> sock =
        ConnectTo(address.host, address.port,
                  std::min(initial_deadline,
                           Clock::now() + std::chrono::seconds(1)));
    if (sock.ok()) {
      conn->sock = std::move(sock).ValueOrDie();
      const Status shaken = DialHandshake(conn, peer);
      if (shaken.ok()) {
        InstallConn(peer, conn);
        established = true;
        const Status terminal = ReadLoop(peer, conn);
        if (ShuttingDown()) return;
        if (terminal.code() == StatusCode::kUnavailable &&
            PeerDead(peer)) {
          return;  // Goodbye received; ReadLoop already marked dead.
        }
        MarkDown(peer);
        break;  // Fall through to the reconnect loop.
      }
    }
    if (Clock::now() >= initial_deadline) {
      MarkDead(peer, "initial connect window exhausted");
      return;
    }
    if (pause_unless_shutdown(std::chrono::milliseconds(20))) return;
  }

  // Reconnect phase: jittered exponential backoff inside an elapsed-time
  // window — the SAME window AcceptSideMain waits out, so both sides of a
  // pair give up together. Bounding by elapsed time (not attempt count)
  // is what lets the rejoin allowance work: a supervised restart takes
  // restart-backoff + process-startup seconds, during which every dial is
  // refused, and an attempt-counted loop would burn its budget long
  // before the peer's listener is back.
  size_t cycle = 0;
  while (!ShuttingDown()) {
    const Clock::time_point window_end =
        Clock::now() + Seconds(ReconnectWindowSeconds());
    bool reconnected = false;
    size_t attempt = 0;
    while (!ShuttingDown() && Clock::now() < window_end) {
      const double backoff = ReconnectBackoffSeconds(peer, cycle, attempt);
      ++attempt;
      if (pause_unless_shutdown(Seconds(backoff))) return;
      if (Clock::now() >= window_end) break;
      auto conn = std::make_shared<Conn>();
      Result<Socket> sock = ConnectTo(address.host, address.port,
                                      Clock::now() + std::chrono::seconds(1));
      if (!sock.ok()) continue;
      conn->sock = std::move(sock).ValueOrDie();
      if (!DialHandshake(conn, peer).ok()) continue;
      InstallConn(peer, conn);
      reconnected = true;
      const Status terminal = ReadLoop(peer, conn);
      if (ShuttingDown()) return;
      if (terminal.code() == StatusCode::kUnavailable && PeerDead(peer)) {
        return;
      }
      MarkDown(peer);
      break;  // Fresh window after every successful period.
    }
    ++cycle;
    if (!reconnected) {
      MarkDead(peer, "reconnect window exhausted");
      return;
    }
  }
}

double TcpTransport::ReconnectBackoffSeconds(size_t peer, size_t cycle,
                                             size_t attempt) const {
  // Exponential base schedule, capped per-sleep at 0.5 s so the window is
  // probed frequently even late in the schedule (a restarting peer's
  // listener comes back at an unpredictable point inside the window).
  const size_t exponent = attempt < 10 ? attempt : 10;
  double backoff = options_.reconnect_backoff_seconds *
                   static_cast<double>(uint64_t{1} << exponent);
  if (backoff > 0.5) backoff = 0.5;
  // Decorrelation jitter in [0.5, 1.0) of the base value, derived from
  // the transport's seed: all peers of a restarted party would otherwise
  // dial on the SAME exponential schedule (thundering herd on its fresh
  // listener). Deterministic, so chaos tests reproduce exactly.
  const uint64_t h = Mix64(options_.jitter_seed ^
                           (uint64_t{0x9e37} * (me_ + 1)) ^
                           (uint64_t(peer) << 40) ^ (uint64_t(cycle) << 20) ^
                           uint64_t(attempt));
  return backoff * (0.5 + 0.5 * UnitDouble(h));
}

void TcpTransport::AcceptSideMain(size_t peer) {
  for (;;) {
    std::shared_ptr<Conn> conn;
    {
      MutexLock lock(mu_);
      const Clock::time_point deadline =
          links_[peer].down_since +
          Seconds(links_[peer].state == LinkState::kConnecting
                      ? options_.connect_timeout_seconds
                      : ReconnectWindowSeconds());
      const bool changed =
          link_cv_.WaitUntil(mu_, deadline, [&]() SQM_REQUIRES(mu_) {
            return shutting_down_ ||
                   links_[peer].state == LinkState::kUp ||
                   links_[peer].state == LinkState::kDead;
          });
      if (shutting_down_) return;
      if (links_[peer].state == LinkState::kDead) return;
      if (!changed) {
        // Window expired without the dialer coming back.
        links_[peer].state = LinkState::kDead;
        links_[peer].conn.reset();
        link_cv_.NotifyAll();
        recv_cv_.NotifyAll();
        SQM_LOG(kInfo) << "TcpTransport party " << me_ << ": peer " << peer
                       << " declared dead (reconnect window expired)";
        return;
      }
      conn = links_[peer].conn;
    }
    if (conn == nullptr) continue;
    const Status terminal = ReadLoop(peer, conn);
    if (terminal.code() == StatusCode::kUnavailable && PeerDead(peer)) {
      // Goodbye path. The dialer closes right after its goodbye; wait for
      // that close (bounded by the receive timeout) so this side never
      // closes first (see Shutdown).
      uint8_t byte = 0;
      size_t got = 0;
      const Status closed = ReadFull(conn->sock, &byte, 1, &got);
      (void)closed;  // EOF, reset or timeout: each ends the wait.
      return;
    }
    if (ShuttingDown()) return;
    {
      // Only demote the link if this reader's connection is still the
      // installed one (the acceptor may have replaced it already).
      MutexLock lock(mu_);
      if (links_[peer].conn == conn &&
          links_[peer].state == LinkState::kUp) {
        links_[peer].state = LinkState::kDown;
        links_[peer].down_since = Clock::now();
        links_[peer].conn.reset();
        link_cv_.NotifyAll();
      }
    }
  }
}

Status TcpTransport::ReadLoop(size_t peer,
                              const std::shared_ptr<Conn>& conn) {
  if (obs::Enabled()) {
    obs::Tracer::Global().SetTrackName(
        kRecvTrackBase + static_cast<int32_t>(peer),
        "recv from party " + std::to_string(peer));
  }
  obs::TrackScope recv_track(kRecvTrackBase + static_cast<int32_t>(peer));
  std::vector<uint8_t> body;
  for (;;) {
    uint8_t len_bytes[4];
    size_t got = 0;
    for (;;) {
      const Status header = ReadFull(conn->sock, len_bytes, 4, &got);
      if (header.ok()) break;
      if (header.code() == StatusCode::kDeadlineExceeded) {
        if (ShuttingDown()) return Status::OK();
        MutexLock lock(mu_);
        if (links_[peer].conn != conn) return Status::OK();  // Replaced.
        continue;
      }
      return header;
    }
    const uint32_t len = FrameLength(len_bytes);
    if (len < 8 || len > MaxEncodedFrameBytes(kMaxFrameElements)) {
      return Status::IntegrityViolation(
          "tcp frame length " + std::to_string(len) + " out of range");
    }
    body.resize(len);
    got = 0;
    for (;;) {
      // Mid-frame timeouts keep waiting: the bytes are committed on the
      // stream, and a genuinely dead peer surfaces as EOF/reset instead.
      const Status read = ReadFull(conn->sock, body.data(), len, &got);
      if (read.ok()) break;
      if (read.code() == StatusCode::kDeadlineExceeded) {
        if (ShuttingDown()) return Status::OK();
        continue;
      }
      return read;
    }
    Result<Frame> decoded =
        DecodeFrame(body.data(), len, options_.session_key);
    if (!decoded.ok()) {
      SQM_LOG(kWarning) << "TcpTransport party " << me_ << ": severing link "
                        << peer << ": " << decoded.status();
      return decoded.status();
    }
    Frame frame = std::move(decoded).ValueOrDie();
    if (frame.from != peer || frame.to != me_ ||
        frame.run_id != options_.run_id) {
      return Status::IntegrityViolation(
          "tcp frame addressed (" + std::to_string(frame.from) + " -> " +
          std::to_string(frame.to) + ") arrived on link " +
          std::to_string(peer) + " -> " + std::to_string(me_));
    }
    if (frame.type == FrameType::kBye) {
      MarkDead(peer, "peer departed gracefully");
      return Status::Unavailable("peer departed");
    }
    if (frame.type != FrameType::kData) {
      return Status::IntegrityViolation("unexpected mid-stream frame type");
    }
    MutexLock lock(mu_);
    if (links_[peer].has_peer_incarnation &&
        frame.incarnation != links_[peer].peer_incarnation) {
      return Status::IntegrityViolation(
          "tcp frame incarnation " + std::to_string(frame.incarnation) +
          " != link incarnation " +
          std::to_string(links_[peer].peer_incarnation) +
          " (frame captured before the peer's restart)");
    }
    if (frame.seq <= links_[peer].last_recv_seq) {
      return Status::IntegrityViolation(
          "tcp frame sequence " + std::to_string(frame.seq) +
          " not above " + std::to_string(links_[peer].last_recv_seq) +
          " (replayed or re-ordered frame)");
    }
    links_[peer].last_recv_seq = frame.seq;
    if (obs::Enabled()) {
      // The recv span plus the finishing half of the sender's flow arrow:
      // same id as the peer's net.send span (propagated in the frame
      // header), so the merged trace draws send -> receive causally across
      // processes. "bp":"e" binds the arrowhead to this recv span.
      obs::Span recv_span("net.recv", "net");
      recv_span.AddArg("peer", static_cast<int64_t>(peer));
      recv_span.AddArg("seq", static_cast<int64_t>(frame.seq));
      recv_span.AddArg("elements",
                       static_cast<int64_t>(frame.payload.size()));
      if (frame.has_trace) {
        obs::Tracer::Global().FlowFinish("net.link", "net", frame.span_id);
      }
    }
    inboxes_[peer].push_back(std::move(frame.payload));
    recv_cv_.NotifyAll();
  }
}

void TcpTransport::Send(size_t from, size_t to, Payload payload) {
  CheckParty(from, to);
  SQM_CHECK(from == me_);
  if (to == me_) {
    // Self-send: the party's own memory — no wire, no statistics.
    MutexLock lock(mu_);
    inboxes_[me_].push_back(std::move(payload));
    recv_cv_.NotifyAll();
    return;
  }
  const std::string phase_label = phase();
  std::vector<Payload> deliveries = InterceptSend(from, to, std::move(payload));
  for (Payload& out : deliveries) {
    std::shared_ptr<Conn> conn;
    uint64_t seq = 0;
    bool up = false;
    {
      MutexLock lock(mu_);
      seq = ++links_[to].send_seq;
      if (links_[to].state == LinkState::kUp) {
        conn = links_[to].conn;
        up = conn != nullptr;
      }
    }
    RecordSend(from, to, out.size());
    if (!up) {
      // The peer is down or dead: the frame is irrecoverably unsent, the
      // same verdict the in-process transports give sends to a crashed
      // party. The receiver's timeout/liveness machinery handles the gap.
      RecordCrashLoss();
      continue;
    }
    const ChaosAction chaos = NextChaosAction(to, phase_label);
    if (chaos == ChaosAction::kDrop) {
      // Asymmetric partition: the frame silently vanishes while the
      // peer's own traffic keeps arriving. Receivers see only a sequence
      // gap (allowed — seq must be increasing, not contiguous) and a
      // missing message, i.e. exactly what a one-way partition looks like.
      RecordDrop();
      continue;
    }
    if (chaos == ChaosAction::kReset) {
      // Connection reset instead of the write: the reader on this link
      // wakes with EOF and the reconnect machinery takes over.
      RecordCrashLoss();
      ShutdownBoth(conn->sock);
      MarkDown(to);
      continue;
    }
    obs::Span send_span("net.send", "net");
    send_span.AddArg("peer", static_cast<int64_t>(to));
    send_span.AddArg("seq", static_cast<int64_t>(seq));
    send_span.AddArg("elements", static_cast<int64_t>(out.size()));
    Frame frame;
    frame.type = FrameType::kData;
    frame.from = static_cast<uint32_t>(from);
    frame.to = static_cast<uint32_t>(to);
    frame.incarnation = options_.incarnation;
    frame.seq = seq;
    frame.run_id = options_.run_id;
    frame.phase = phase_label;
    frame.payload = std::move(out);
    if (obs::Enabled() && obs::Tracer::TraceId() != 0) {
      // Trace-context propagation: the receiver's net.recv links back to
      // this span through the frame header (under the MAC). Gated on a
      // nonzero trace id so plain library users and the kill-switched
      // builds keep a context-free wire.
      frame.has_trace = true;
      frame.trace_id = obs::Tracer::TraceId();
      frame.span_id = send_span.id();
      obs::Tracer::Global().FlowStart("net.link", "net", send_span.id());
    }
    const std::vector<uint8_t> wire =
        EncodeFrame(frame, options_.session_key);
    if (chaos == ChaosAction::kStall) {
      // Fault injection, not a retry: the stall IS the event under test.
      // sqmlint:allow(retry-discipline)
      std::this_thread::sleep_for(Seconds(options_.chaos.stall_seconds));
    }
    Status written = Status::OK();
    {
      MutexLock write_lock(conn->write_mu);
      if (chaos == ChaosAction::kPartial) {
        // Torn write: commit a prefix, then sever. The receiver's framing
        // layer sees a truncated stream and drops the connection — the
        // partial frame can never decode (its MAC is missing).
        const size_t prefix = wire.size() / 2;
        written = WriteAll(conn->sock, wire.data(), prefix);
        ShutdownBoth(conn->sock);
        written = Status::Unavailable("chaos: torn write");
      } else {
        written = WriteAll(conn->sock, wire.data(), wire.size());
      }
    }
    if (!written.ok()) {
      RecordCrashLoss();
      // Wake the link's reader promptly so reconnection starts now.
      ShutdownBoth(conn->sock);
      MarkDown(to);
    }
  }
}

TcpTransport::ChaosAction TcpTransport::NextChaosAction(
    size_t to, const std::string& phase_label) {
  const ChaosOptions& chaos = options_.chaos;
  if (chaos.seed == 0) return ChaosAction::kNone;
  if (!chaos.phase.empty() && phase_label != chaos.phase) {
    return ChaosAction::kNone;
  }
  MutexLock lock(mu_);
  if (chaos_events_ >= chaos.max_events) return ChaosAction::kNone;
  const uint64_t draw = chaos_draws_++;
  if (to == chaos.partition_peer &&
      chaos_partition_drops_ < chaos.partition_sends) {
    ++chaos_partition_drops_;
    ++chaos_events_;
    return ChaosAction::kDrop;
  }
  const double u = UnitDouble(
      Mix64(chaos.seed ^ (uint64_t{0xc4a05} * (me_ + 1)) ^ (draw << 8) ^
            uint64_t(to)));
  double threshold = chaos.reset_probability;
  if (u < threshold) {
    ++chaos_events_;
    return ChaosAction::kReset;
  }
  threshold += chaos.partial_write_probability;
  if (u < threshold) {
    ++chaos_events_;
    return ChaosAction::kPartial;
  }
  threshold += chaos.stall_probability;
  if (u < threshold) {
    ++chaos_events_;
    return ChaosAction::kStall;
  }
  return ChaosAction::kNone;
}

Result<Transport::Payload> TcpTransport::Receive(size_t from, size_t to) {
  CheckParty(from, to);
  SQM_CHECK(to == me_);
  const Clock::time_point deadline =
      Clock::now() + Seconds(options_.receive_timeout_seconds);
  MutexLock lock(mu_);
  for (;;) {
    if (!inboxes_[from].empty()) {
      Payload payload = std::move(inboxes_[from].front());
      inboxes_[from].pop_front();
      return payload;
    }
    if (from != me_ && links_[from].state == LinkState::kDead) {
      return Status::Unavailable(
          "party " + std::to_string(from) +
          " crashed (tcp link dead, reconnect window exhausted)");
    }
    if (Clock::now() >= deadline) {
      RecordTimeout();
      return Status::DeadlineExceeded(
          "receive from party " + std::to_string(from) + " timed out after " +
          std::to_string(options_.receive_timeout_seconds) + " s");
    }
    const bool woken = recv_cv_.WaitUntil(mu_, deadline);
    (void)woken;  // Timeout and wake both re-run the checks above.
  }
}

bool TcpTransport::HasPending(size_t from, size_t to) const {
  CheckParty(from, to);
  if (to != me_) return false;
  MutexLock lock(mu_);
  return !inboxes_[from].empty();
}

size_t TcpTransport::Reset() {
  size_t dropped = 0;
  {
    MutexLock lock(mu_);
    for (std::deque<Payload>& inbox : inboxes_) {
      dropped += inbox.size();
      inbox.clear();
    }
  }
  WarnDroppedOnReset("TcpTransport", dropped);
  ResetAccounting();
  return dropped;
}

bool TcpTransport::PeerDead(size_t peer) const {
  MutexLock lock(mu_);
  return links_[peer].state == LinkState::kDead;
}

double TcpTransport::ReconnectWindowSeconds() const {
  // Sum of the dialer's backoff schedule plus one connect attempt's slack:
  // the accepting side waits this long before declaring the dialer dead,
  // and callers can use it to bound worst-case stall on a killed peer.
  double window = 1.0;
  for (size_t attempt = 0; attempt < options_.max_reconnect_attempts;
       ++attempt) {
    window += options_.reconnect_backoff_seconds *
              static_cast<double>(uint64_t{1} << attempt);
  }
  // Rejoin allowance: when a supervisor may respawn a killed party, the
  // window must additionally cover its restart backoff, process startup,
  // and listener rebinding — otherwise the restarted party's rejoin races
  // a deadline that was sized for mere socket hiccups and loses.
  window += options_.rejoin_window_seconds;
  return window;
}

void TcpTransport::Shutdown() {
  bool already = false;
  {
    MutexLock lock(mu_);
    already = shutting_down_;
    shutting_down_ = true;
    link_cv_.NotifyAll();
    recv_cv_.NotifyAll();
  }
  if (already) return;

  // Graceful goodbyes: peers that hear a kBye mark this party departed
  // instead of burning their reconnect budget on it.
  for (size_t peer = 0; peer < options_.peers.size(); ++peer) {
    if (peer == me_) continue;
    std::shared_ptr<Conn> conn;
    uint64_t seq = 0;
    {
      MutexLock lock(mu_);
      if (links_[peer].state != LinkState::kUp) continue;
      conn = links_[peer].conn;
      seq = ++links_[peer].send_seq;
    }
    if (conn == nullptr) continue;
    Frame bye;
    bye.type = FrameType::kBye;
    bye.from = static_cast<uint32_t>(me_);
    bye.to = static_cast<uint32_t>(peer);
    bye.incarnation = options_.incarnation;
    bye.seq = seq;
    bye.run_id = options_.run_id;
    const std::vector<uint8_t> wire = EncodeFrame(bye, options_.session_key);
    MutexLock write_lock(conn->write_mu);
    const Status sent = WriteAll(conn->sock, wire.data(), wire.size());
    (void)sent;  // A peer that is already gone cannot hear the goodbye.
  }

  // Only the dialing side closes a link first. Links this party dialed are
  // shut down here; an accepted link's reader ends when its dialer closes,
  // which the goodbye above prompts (the dialer's ReadLoop marks this party
  // dead and DialerMain returns), or at its 0.25 s receive timeout. The
  // side that closes first keeps the connection in TIME_WAIT for 60 s, so
  // this puts it on the dialer's ephemeral port and never on a listener's
  // port: back-to-back sessions that each bind port 0 would otherwise fill
  // the range that bind searches, and each bind would then cost
  // milliseconds of kernel time.
  {
    MutexLock lock(mu_);
    for (size_t peer = 0; peer < me_; ++peer) {
      if (links_[peer].conn != nullptr) ShutdownBoth(links_[peer].conn->sock);
    }
  }
  // A shut-down listener makes the acceptor's poll return POLLHUP at once.
  // Sockets close when the last shared_ptr reference (reader or link slot)
  // releases.
  ShutdownBoth(listener_);
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  {
    MutexLock lock(mu_);
    for (Link& link : links_) link.conn.reset();
  }
  listener_.Close();
}

}  // namespace net
}  // namespace sqm
