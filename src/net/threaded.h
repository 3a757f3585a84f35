#ifndef SQM_NET_THREADED_H_
#define SQM_NET_THREADED_H_

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "core/sync.h"
#include "net/transport.h"

namespace sqm {

/// Configuration of a ThreadedTransport.
struct ThreadedTransportOptions {
  /// How long one blocking Receive waits (wall-clock) before it gives up.
  double receive_timeout_seconds = 0.25;
  /// Scheduled party crashes, the same schedule LockstepTransport takes.
  std::vector<CrashEvent> crashes;
};

/// Multi-party transport for party threads: every directed channel is a
/// mailbox guarded by a mutex and a condition variable, so each party can
/// run on its own thread (see net/runner.h) and call ArriveRound() at each
/// round boundary; the round counter advances once per barrier generation.
/// A single driver thread may instead call EndRound(), as it does on
/// LockstepTransport. Links deliver in order and never lose a message; the
/// only fault is the crash schedule.
///
/// Receive blocks for one timeout window. With nothing delivered by then
/// it returns kUnavailable when the sender has crashed and
/// kDeadlineExceeded otherwise. A crashed sender's messages are swallowed
/// before the interceptor sees them, as on LockstepTransport.
///
/// The party threads are barrier-synchronised, so a channel holds at most
/// one round's messages and the mailboxes need no bound.
class ThreadedTransport : public Transport {
 public:
  ThreadedTransport(size_t num_parties, ThreadedTransportOptions options);
  ~ThreadedTransport() override;

  void Send(size_t from, size_t to, Payload payload) override;
  Result<Payload> Receive(size_t from, size_t to) override;
  bool HasPending(size_t from, size_t to) const override;

  /// Driver-mode round boundary (single protocol-driving thread).
  void EndRound() override;

  /// Per-party round barrier: blocks until all parties have arrived, then
  /// advances the round counter once. Every party thread must call it with
  /// its own index once per round.
  void ArriveRound(size_t party);

  size_t Reset() override;

  const ThreadedTransportOptions& options() const { return options_; }

  /// Rounds completed so far (drives the crash schedule).
  uint64_t completed_rounds() const {
    return completed_rounds_.load(std::memory_order_acquire);
  }

 private:
  struct Mailbox {
    mutable Mutex mu;
    CondVar ready;  ///< Signaled on enqueue.
    std::deque<Payload> queue SQM_GUARDED_BY(mu);
  };

  Mailbox& mailbox(size_t from, size_t to) {
    return *mailboxes_[ChannelIndex(from, to)];
  }
  const Mailbox& mailbox(size_t from, size_t to) const {
    return *mailboxes_[ChannelIndex(from, to)];
  }

  /// Appends `payload` to the (from -> to) mailbox and wakes a receiver.
  void Enqueue(size_t from, size_t to, Payload payload);

  ThreadedTransportOptions options_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<uint64_t> completed_rounds_{0};

  // Round-barrier state for per-party mode.
  Mutex round_mu_;
  CondVar round_cv_;
  size_t arrived_ SQM_GUARDED_BY(round_mu_) = 0;
  uint64_t generation_ SQM_GUARDED_BY(round_mu_) = 0;
};

}  // namespace sqm

#endif  // SQM_NET_THREADED_H_
