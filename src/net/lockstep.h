#ifndef SQM_NET_LOCKSTEP_H_
#define SQM_NET_LOCKSTEP_H_

#include <deque>

#include "net/transport.h"

namespace sqm {

/// Deterministic single-threaded transport reproducing the paper's
/// single-machine simulation ("each party is assumed to have a secure and
/// noiseless channel", with a fixed 0.1 s message-passing latency):
/// messages queue in program order per directed channel, a Receive with
/// nothing pending hard-fails — in a correct synchronous protocol every
/// receive is matched by a send in the same round — and the simulated
/// clock advances by the per-round latency at every EndRound (all messages
/// of a round fly in parallel, as in the standard synchronous MPC model).
/// Tables II/IV/V report simulated latency plus measured compute time. The
/// default 8-byte element width is the field's (Field::kWireBytes).
///
/// Not thread-safe for Send/Receive (accounting snapshots are); party
/// threads each run their own TcpTransport.
class LockstepTransport : public Transport {
 public:
  LockstepTransport(size_t num_parties, double per_round_latency_seconds,
                    size_t element_wire_bytes = kDefaultElementWireBytes);

  void Send(size_t from, size_t to, Payload payload) override;
  Result<Payload> Receive(size_t from, size_t to) override;
  bool HasPending(size_t from, size_t to) const override;

  /// Installs a crash schedule. A crashed party's sends are swallowed
  /// (counted as crash losses); a Receive from a crashed party with nothing
  /// queued returns kUnavailable — messages it sent before crashing remain
  /// deliverable.
  void ScheduleCrashes(const std::vector<CrashEvent>& crashes);

  /// Zeroes counters; warns (and returns the count) when undelivered
  /// messages are discarded, since that usually flags a protocol bug or a
  /// test that did not drain its rounds. Keeps the crash schedule.
  size_t Reset() override;

 private:
  std::vector<std::deque<Payload>> queues_;
  std::vector<CrashEvent> crashes_;
};

}  // namespace sqm

#endif  // SQM_NET_LOCKSTEP_H_
