#ifndef SQM_NET_TCP_TCP_TRANSPORT_H_
#define SQM_NET_TCP_TCP_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "net/tcp/frame.h"
#include "net/tcp/socket.h"
#include "net/transport.h"

namespace sqm {
namespace net {

/// One entry of the party roster: where party `i` listens.
struct TcpPeer {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Seeded socket-level fault injection applied inside TcpTransport::Send
/// (in-process transports know only crash schedules). Every
/// decision derives deterministically from `seed` (mixed with the local
/// party id, so faults are asymmetric across a mesh), injection can be
/// scoped to one phase label, and `max_events` bounds the total damage so
/// a chaotic run still converges. Handshake and goodbye frames are never
/// touched: chaos exercises the recovery machinery, not the authenticator.
struct ChaosOptions {
  /// 0 disables chaos entirely.
  uint64_t seed = 0;
  /// Only sends whose transport phase label equals this are eligible
  /// (empty = every phase).
  std::string phase;
  /// Hard cap on injected events across the transport's lifetime.
  size_t max_events = 8;
  /// Per-send probability of severing the connection instead of writing
  /// (a mid-protocol connection reset; the link reconnects).
  double reset_probability = 0.0;
  /// Per-send probability of writing only a prefix of the frame and then
  /// severing — the receiver sees a torn stream and drops the link.
  double partial_write_probability = 0.0;
  /// Per-send probability of stalling the write by `stall_seconds`.
  double stall_probability = 0.0;
  double stall_seconds = 0.05;
  /// When != SIZE_MAX: an asymmetric partition against this peer — the
  /// first `partition_sends` eligible cross-party sends to it are
  /// silently dropped (never written), while the peer's own frames keep
  /// arriving. Partition drops count against max_events.
  size_t partition_peer = static_cast<size_t>(-1);
  size_t partition_sends = 0;
};

struct TcpTransportOptions {
  /// Which roster entry this process plays. Unlike the in-process
  /// transports, a TcpTransport serves exactly ONE party: Send is valid
  /// only with from == local_party, Receive only with to == local_party.
  size_t local_party = 0;

  /// All n parties' listen addresses, indexed by party id (the local
  /// entry included — its port is where this process binds, unless
  /// `listen_fd` adopts a pre-bound socket).
  std::vector<TcpPeer> peers;

  /// Shared session key for SipHash-2-4 frame authentication. Every party
  /// of a run must hold the same key; frames from key-less or wrong-key
  /// senders fail MAC verification and sever the link.
  uint64_t session_key = 0;

  /// Run identifier carried in every frame; frames from a different run
  /// are rejected (stale daemons, crossed ports).
  uint64_t run_id = 0;

  /// How long one Receive waits for a pending message before returning
  /// kDeadlineExceeded (a liveness strike for the caller's tracker).
  double receive_timeout_seconds = 2.0;

  /// Window for establishing the initial full mesh in Create; dial
  /// attempts retry inside it (peers start in any order).
  double connect_timeout_seconds = 10.0;

  /// Reconnect policy after an established link drops: the dialing side
  /// retries with exponential backoff (base `reconnect_backoff_seconds`,
  /// doubled per attempt) up to `max_reconnect_attempts`, then declares
  /// the peer dead. The accepting side waits out the equivalent window
  /// (ReconnectWindowSeconds). This bound is what turns a killed peer
  /// into kUnavailable instead of a hang.
  size_t max_reconnect_attempts = 5;
  double reconnect_backoff_seconds = 0.05;

  /// When >= 0, adopt this already-bound, already-listening socket fd
  /// instead of binding peers[local_party]. The coordinator pre-binds all
  /// listeners (port 0 = ephemeral) and passes them to the spawned party
  /// processes, making localhost port assignment race-free.
  int listen_fd = -1;

  /// This party's restart generation under run_id: 0 for the first
  /// process, +1 per supervised respawn. Carried in every frame;
  /// handshakes presenting a LOWER incarnation than previously seen are
  /// rejected, a higher one flushes the link's replay state (the new
  /// process opens a fresh sequence space).
  uint32_t incarnation = 0;

  /// Extra seconds every peer keeps waiting for a vanished party beyond
  /// the dialer's own backoff schedule — sized to cover the supervisor's
  /// restart backoff plus process startup and listener rebinding, so a
  /// legitimate restart+rejoin never races the reconnect window. 0 = no
  /// allowance (crash-stop semantics, the pre-recovery behavior).
  double rejoin_window_seconds = 0.0;

  /// Seed for the decorrelation jitter on reconnect backoff (all peers of
  /// a restarted party would otherwise dial on the same exponential
  /// schedule). Deterministic: same seed, same schedule.
  uint64_t jitter_seed = 0;

  /// Socket-level fault injection (testing only; seed 0 disables).
  ChaosOptions chaos;
};

/// Transport over real TCP sockets: one OS process per party, full mesh.
///
/// Framing is length-prefixed with a protocol-version + channel/phase
/// header and a SipHash-2-4 MAC under the shared session key (see
/// net/tcp/frame.h). Connection establishment uses a fixed convention —
/// the higher-numbered party dials the lower-numbered one — so exactly one
/// side of each pair owns reconnection. A dropped link is retried with
/// exponential backoff; when the budget is exhausted the peer is declared
/// dead and every subsequent Receive from it fails kUnavailable, which the
/// protocol layer's LivenessTracker maps to an immediate kDead verdict.
///
/// Accounting goes through the shared Transport hooks, so TransportStats
/// counts exactly as it does for the in-process transports: sends count
/// at the instant the frame is handed to the wire (delivered or not),
/// receives are never counted, self-sends bypass both the socket layer and
/// the statistics.
class TcpTransport : public Transport {
 public:
  /// Builds the transport and establishes the full mesh, blocking up to
  /// connect_timeout_seconds. Fails (and cleans up) if any link cannot be
  /// established in that window.
  static Result<std::unique_ptr<TcpTransport>> Create(
      const TcpTransportOptions& options);

  ~TcpTransport() override;

  /// `from` must equal local_party (a process can only send as itself).
  void Send(size_t from, size_t to, Payload payload) override;

  /// `to` must equal local_party. Blocks up to receive_timeout_seconds;
  /// kUnavailable once the sending peer is positively dead (link closed
  /// and reconnect window exhausted, or graceful goodbye received),
  /// kDeadlineExceeded otherwise.
  Result<Payload> Receive(size_t from, size_t to) override;

  bool HasPending(size_t from, size_t to) const override;

  size_t Reset() override;

  /// True once the peer's link has been declared dead (reconnect budget
  /// exhausted or goodbye received). Feeds protocol-level quorum logic.
  bool PeerDead(size_t peer) const;

  /// Upper bound in seconds between a peer vanishing and PeerDead turning
  /// true: the sum of the exponential-backoff reconnect schedule plus the
  /// rejoin allowance (`rejoin_window_seconds`, covering supervisor
  /// restart backoff and listener rebinding after a respawn).
  double ReconnectWindowSeconds() const;

  /// Sends goodbye frames on all live links and tears the mesh down
  /// (idempotent; also run by the destructor). After a graceful shutdown
  /// peers mark this party departed without burning reconnect attempts.
  /// Links this party dialed close at once; an accepted link waits for its
  /// dialer to close first (up to the 0.25 s receive timeout).
  void Shutdown();

  /// The port the local listener is actually bound to (resolves port 0).
  uint16_t listen_port() const { return listen_port_; }

 private:
  /// One live connection. Held by shared_ptr so a writer that copied the
  /// pointer can never race the reader thread closing the fd.
  struct Conn {
    Socket sock;
    Mutex write_mu;  ///< Serializes whole frames onto the stream.
  };

  enum class LinkState : uint8_t { kConnecting, kUp, kDown, kDead };

  struct Link {
    LinkState state = LinkState::kConnecting;
    std::shared_ptr<Conn> conn;
    std::chrono::steady_clock::time_point down_since;
    uint64_t send_seq = 0;       ///< Next outgoing data-frame sequence.
    uint64_t last_recv_seq = 0;  ///< Highest verified incoming sequence.
    bool departed = false;       ///< Peer said goodbye (no reconnects).
    /// The peer's restart generation as learned from its last verified
    /// handshake. Data frames must match it exactly; a higher one at
    /// handshake resets last_recv_seq (fresh sequence space), a lower one
    /// is rejected as a stale process.
    uint32_t peer_incarnation = 0;
    bool has_peer_incarnation = false;
  };

  explicit TcpTransport(const TcpTransportOptions& options);

  Status Start();
  Status WaitMeshUp(std::chrono::steady_clock::time_point deadline);

  void AcceptorMain();
  void DialerMain(size_t peer);
  void AcceptSideMain(size_t peer);

  /// Reads frames from an installed connection until error/goodbye;
  /// returns the terminal status. Runs on the link's owner thread.
  Status ReadLoop(size_t peer, const std::shared_ptr<Conn>& conn);

  /// Performs the dialer-side handshake on a fresh connection.
  Status DialHandshake(const std::shared_ptr<Conn>& conn, size_t peer);

  void InstallConn(size_t peer, std::shared_ptr<Conn> conn);
  void MarkDown(size_t peer);
  void MarkDead(size_t peer, const char* reason);

  /// Registers the incarnation a verified handshake presented for `peer`:
  /// rejects a stale (lower) incarnation, flushes replay state on a newer
  /// one, keeps sequence state on an equal one (same process, new socket).
  Status NoteIncarnation(size_t peer, uint32_t incarnation);

  /// The jittered exponential backoff before reconnect attempt `attempt`
  /// to `peer` (deterministic in jitter_seed; capped so the reconnect
  /// window is probed frequently even late in the schedule).
  double ReconnectBackoffSeconds(size_t peer, size_t cycle,
                                 size_t attempt) const;

  /// What chaos (if any) to inject into the next eligible send to `to`.
  enum class ChaosAction : uint8_t { kNone, kDrop, kReset, kPartial, kStall };
  ChaosAction NextChaosAction(size_t to, const std::string& phase_label);

  bool ShuttingDown() const;

  const TcpTransportOptions options_;
  const size_t me_;
  uint16_t listen_port_ = 0;

  Socket listener_;
  std::vector<std::thread> threads_;

  mutable Mutex mu_;
  CondVar recv_cv_;  ///< Signaled on inbox pushes and death verdicts.
  CondVar link_cv_;  ///< Signaled on link state changes.
  std::vector<Link> links_ SQM_GUARDED_BY(mu_);
  std::vector<std::deque<Payload>> inboxes_ SQM_GUARDED_BY(mu_);
  bool shutting_down_ SQM_GUARDED_BY(mu_) = false;
  /// Chaos bookkeeping: one draw per eligible send, events capped.
  uint64_t chaos_draws_ SQM_GUARDED_BY(mu_) = 0;
  size_t chaos_events_ SQM_GUARDED_BY(mu_) = 0;
  size_t chaos_partition_drops_ SQM_GUARDED_BY(mu_) = 0;
};

}  // namespace net

// The roster/options types are part of the deployment-facing surface;
// re-export them at namespace sqm like the other transport option structs.
using net::TcpPeer;
using net::TcpTransport;
using net::TcpTransportOptions;

}  // namespace sqm

#endif  // SQM_NET_TCP_TCP_TRANSPORT_H_
