#ifndef SQM_NET_TRANSPORT_H_
#define SQM_NET_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "net/stats.h"

namespace sqm {

/// Which Transport a driver-mode pipeline constructs. Every driver-mode
/// release runs on LockstepTransport; the enum and SqmOptions::transport
/// remain only because the perfbench workloads still set the field.
enum class TransportMode {
  /// Deterministic single-threaded queues (the paper's simulation):
  /// Receive hard-fails when no message is pending.
  kLockstep,
};

/// One scheduled party crash: `party` stops sending once `after_rounds`
/// communication rounds have completed. after_rounds = 0 means the party
/// never sends at all. A crashed party's sends are swallowed before the
/// interceptor sees them. A party listed twice crashes at the earliest of
/// its rounds. Crash schedules are the only in-process fault; only
/// LockstepTransport takes them.
struct CrashEvent {
  size_t party = 0;
  uint64_t after_rounds = 0;
};

/// True if `crashes` has `party` crashed once `completed_rounds` rounds
/// have finished.
inline bool HasCrashed(const std::vector<CrashEvent>& crashes, size_t party,
                       uint64_t completed_rounds) {
  for (const CrashEvent& event : crashes) {
    if (event.party == party && completed_rounds >= event.after_rounds) {
      return true;
    }
  }
  return false;
}

/// Wire-level message hook: sees (and may rewrite) every cross-party
/// message at the instant it enters the wire, before traffic accounting.
/// This is the seam the adversarial conformance harness (src/testing/)
/// attaches to — a ByzantineInterceptor tampers payloads, a
/// TranscriptRecorder captures them — without the protocol layer knowing
/// an observer exists.
///
/// Self-sends (from == to) model a party's own memory and are never
/// presented to the interceptor: a wire adversary cannot touch them.
/// Implementations must be thread-safe when one instance is attached to
/// transports sending on different threads.
class MessageInterceptor {
 public:
  virtual ~MessageInterceptor() = default;

  /// Everything the wire knows about one message at send time.
  struct WireContext {
    size_t from = 0;
    size_t to = 0;
    uint64_t round = 0;  ///< Communication rounds completed at send time.
    std::string phase;   ///< Transport phase label ("input", "mul", ...).
  };

  /// What the interceptor decided for this message. The (possibly
  /// mutated) payload is delivered unless `swallow` is set; `replays`
  /// are extra copies enqueued right behind it (message duplication).
  struct SendVerdict {
    bool swallow = false;
    std::vector<std::vector<uint64_t>> replays;
  };

  /// Called once per cross-party Send. May mutate `payload` in place.
  virtual SendVerdict OnSend(const WireContext& context,
                             std::vector<uint64_t>& payload) = 0;
};

/// Abstract pairwise message transport between `num_parties` parties.
///
/// This is the seam between protocol logic (BgwEngine, the SQM pipeline)
/// and the execution model. The same protocol code runs over
///  - LockstepTransport: the paper's single-machine simulation — queues in
///    program order, a simulated clock advancing per round,
///  - TcpTransport: one process per party over real sockets (tests run
///    one per thread over loopback).
///
/// Accounting is uniform across implementations: global totals
/// (NetworkStats), per-directed-channel counters, and per-phase counters
/// keyed by the label set via SetPhase. All accounting methods are
/// thread-safe; Send/Receive thread-safety is implementation-defined
/// (lock-step is single-threaded only).
class Transport {
 public:
  using Payload = std::vector<uint64_t>;

  /// `element_wire_bytes` is the serialized width of one payload element on
  /// the wire (for the 61-bit field, Field::kWireBytes), used for byte
  /// accounting.
  Transport(size_t num_parties, double per_round_latency_seconds,
            size_t element_wire_bytes);
  virtual ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  size_t num_parties() const { return num_parties_; }
  double per_round_latency() const { return per_round_latency_; }
  size_t element_wire_bytes() const { return element_wire_bytes_; }

  /// Enqueues `payload` on the (from -> to) channel. Self-sends are allowed
  /// (parties keep their own sub-shares) and are delivered, but count in no
  /// traffic statistic — see the convention in net/stats.h.
  virtual void Send(size_t from, size_t to, Payload payload) = 0;

  /// Takes the oldest deliverable message on (from -> to). Lock-step
  /// fails immediately when nothing is pending; TCP blocks up to its
  /// configured timeout.
  virtual Result<Payload> Receive(size_t from, size_t to) = 0;

  /// True if a message is ready for delivery on (from -> to).
  virtual bool HasPending(size_t from, size_t to) const = 0;

  /// Marks the end of a synchronous round: advances the simulated clock and
  /// the round counter. Every party ends each round on its own transport;
  /// a driver hosting all parties ends it once.
  virtual void EndRound();

  /// Drops undelivered messages and zeroes all counters; returns how many
  /// messages were dropped (logging a warning when nonzero). The dropped
  /// count uniformly includes every undelivered message across
  /// implementations, and the drain + counter reset is atomic with respect
  /// to concurrent senders: a message is either counted in pre-reset
  /// traffic and dropped, or lands after the reset with fresh accounting,
  /// never half of each.
  virtual size_t Reset() = 0;

  /// Simulated communication time so far (rounds * per-round latency).
  double SimulatedSeconds() const;

  /// Snapshot of the global traffic totals (thread-safe copy).
  NetworkStats stats() const;

  /// Full accounting snapshot: totals, per-channel, per-phase, fault and
  /// reliability counters, simulated and wall clocks.
  TransportStats Snapshot() const;

  /// Labels subsequent traffic with `phase` in the per-phase breakdown
  /// (e.g. "input", "mul", "open"). Empty string = unattributed.
  void SetPhase(const std::string& phase);
  std::string phase() const;

  /// Installs a wire interceptor (non-owning; nullptr detaches). The
  /// interceptor must outlive the transport while attached. Interceptors
  /// see every cross-party message before accounting; see
  /// MessageInterceptor for the contract.
  void SetInterceptor(MessageInterceptor* interceptor);
  MessageInterceptor* interceptor() const;

 protected:
  /// Bounds-check helper: aborts on an out-of-range party index.
  void CheckParty(size_t from, size_t to) const;

  size_t ChannelIndex(size_t from, size_t to) const {
    return from * num_parties_ + to;
  }

  // Thread-safe accounting hooks for implementations. Cross-party only;
  // callers skip self-sends.
  void RecordSend(size_t from, size_t to, size_t elements);
  void RecordRound();
  void RecordDrop();
  void RecordTimeout();
  void RecordRetry();
  void RecordCrashLoss();

  /// Zeroes every counter and phase (used by Reset implementations).
  void ResetAccounting();

  /// Logs one warning line when a Reset dropped `dropped` > 0 undelivered
  /// messages.
  static void WarnDroppedOnReset(const char* transport_name, size_t dropped);

  /// Runs the attached interceptor (if any) on one outgoing message and
  /// returns the payloads to actually enqueue: usually {payload}; empty
  /// when the interceptor swallowed it; more than one when it requested
  /// replays. Self-sends bypass the interceptor. Implementations call
  /// this from Send, then enqueue (and account) each returned payload as
  /// if it were an independently sent message.
  std::vector<Payload> InterceptSend(size_t from, size_t to,
                                     Payload payload);

 private:
  const size_t num_parties_;
  const double per_round_latency_;
  const size_t element_wire_bytes_;
  const std::chrono::steady_clock::time_point start_;

  mutable Mutex mu_;
  MessageInterceptor* interceptor_ SQM_GUARDED_BY(mu_) = nullptr;
  NetworkStats totals_ SQM_GUARDED_BY(mu_);
  // n*n, row-major (from, to).
  std::vector<ChannelStats> channels_ SQM_GUARDED_BY(mu_);
  // First-use order.
  std::vector<PhaseStats> phases_ SQM_GUARDED_BY(mu_);
  // Index into phases_.
  size_t current_phase_ SQM_GUARDED_BY(mu_) = 0;
  uint64_t drops_ SQM_GUARDED_BY(mu_) = 0;
  uint64_t timeouts_ SQM_GUARDED_BY(mu_) = 0;
  uint64_t retries_ SQM_GUARDED_BY(mu_) = 0;
  uint64_t crash_losses_ SQM_GUARDED_BY(mu_) = 0;
};

/// RAII phase label: sets the transport's phase on construction and
/// restores the previous label on destruction. Tolerates a null transport
/// so protocol code can run without accounting.
class PhaseScope {
 public:
  PhaseScope(Transport* transport, const std::string& phase);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Transport* transport_;
  std::string previous_;
};

}  // namespace sqm

#endif  // SQM_NET_TRANSPORT_H_
