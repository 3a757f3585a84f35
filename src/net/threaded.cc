#include "net/threaded.h"

#include <algorithm>
#include <thread>

#include "core/logging.h"
#include "obs/trace.h"

namespace sqm {

namespace {

std::chrono::steady_clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Fault-injection instant on the party track, with channel context.
void TraceFault(const char* name, size_t from, size_t to) {
  obs::Tracer::Global().Instant(name, "net",
                                {{"from", static_cast<int64_t>(from)},
                                 {"to", static_cast<int64_t>(to)}});
}

}  // namespace

ThreadedTransport::ThreadedTransport(size_t num_parties,
                                     ThreadedTransportOptions options)
    : Transport(num_parties, options.per_round_latency_seconds,
                options.element_wire_bytes),
      options_(options),
      faults_(num_parties, options.faults),
      mailboxes_(num_parties * num_parties) {
  SQM_CHECK(options_.mailbox_capacity >= 1);
  SQM_CHECK(options_.receive_timeout_seconds > 0.0);
  SQM_CHECK(options_.retry_backoff_seconds >= 0.0);
  for (auto& box : mailboxes_) box = std::make_unique<Mailbox>();
}

ThreadedTransport::~ThreadedTransport() = default;

void ThreadedTransport::Send(size_t from, size_t to, Payload payload) {
  CheckParty(from, to);
  Mailbox& box = mailbox(from, to);

  if (from == to) {
    // A party's messages to itself live in its own memory: no faults, no
    // accounting, but still through the mailbox so driver- and per-party
    // mode behave identically.
    MutexLock lock(box.mu);
    while (box.queue.size() >= options_.mailbox_capacity) {
      box.space.Wait(box.mu);
    }
    box.queue.push_back(
        Entry{std::move(payload), std::chrono::steady_clock::now()});
    box.ready.NotifyOne();
    return;
  }

  if (faults_.HasCrashed(from, completed_rounds())) {
    // The sender is dead: the message vanishes and can never be
    // retransmitted.
    RecordCrashLoss();
    TraceFault("net.fault.crash_loss", from, to);
    return;
  }

  obs::Span span("net.send", "net");
  span.AddArg("from", static_cast<int64_t>(from));
  span.AddArg("to", static_cast<int64_t>(to));
  // The interceptor (adversarial harness) rewrites the wire before fault
  // injection: a tampered payload can still be dropped or delayed, and a
  // replayed copy draws its own independent fault fate.
  for (Payload& delivered : InterceptSend(from, to, std::move(payload))) {
    DeliverFaulted(from, to, std::move(delivered));
  }
}

void ThreadedTransport::DeliverFaulted(size_t from, size_t to,
                                       Payload payload) {
  Mailbox& box = mailbox(from, to);
  const FaultInjector::SendFate fate = faults_.OnSend(from, to);
  RecordSend(from, to, payload.size());

  if (fate.drop) {
    RecordDrop();
    TraceFault("net.fault.drop", from, to);
    MutexLock lock(box.mu);
    box.retransmit.push_back(std::move(payload));
    return;
  }

  Entry entry{std::move(payload), std::chrono::steady_clock::now()};
  if (fate.delay_seconds > 0.0) {
    entry.deliver_at += ToDuration(fate.delay_seconds);
    RecordDelay();
    TraceFault("net.fault.delay", from, to);
  }

  MutexLock lock(box.mu);
  while (box.queue.size() >= options_.mailbox_capacity) {
    box.space.Wait(box.mu);
  }
  if (fate.reorder && !box.queue.empty()) {
    box.queue.push_front(std::move(entry));
    RecordReorder();
    TraceFault("net.fault.reorder", from, to);
  } else {
    box.queue.push_back(std::move(entry));
  }
  box.ready.NotifyOne();
}

Result<Transport::Payload> ThreadedTransport::Receive(size_t from,
                                                      size_t to) {
  CheckParty(from, to);
  Mailbox& box = mailbox(from, to);
  double backoff = options_.retry_backoff_seconds;

  // Spans the whole receive including blocking waits, timeouts and retry
  // backoff — the "where does party j sit idle" signal in the trace.
  obs::Span span("net.recv.wait", "net");
  span.AddArg("from", static_cast<int64_t>(from));
  span.AddArg("to", static_cast<int64_t>(to));

  for (size_t attempt = 0;; ++attempt) {
    const auto deadline = std::chrono::steady_clock::now() +
                          ToDuration(options_.receive_timeout_seconds);
    ReleasableMutexLock lock(box.mu);
    while (true) {
      const auto now = std::chrono::steady_clock::now();
      // Deliver the oldest ready entry; delayed entries behind it do not
      // block delivery (the link reorders around in-flight packets).
      auto ready = std::find_if(
          box.queue.begin(), box.queue.end(),
          [&](const Entry& entry) { return entry.deliver_at <= now; });
      if (ready != box.queue.end()) {
        Payload payload = std::move(ready->payload);
        box.queue.erase(ready);
        box.space.NotifyOne();
        return payload;
      }
      if (!box.queue.empty()) {
        // Messages are in flight (fault-injected delay): a timeout would
        // lie, so wait for the earliest scheduled delivery instead.
        auto earliest = box.queue.front().deliver_at;
        for (const Entry& entry : box.queue) {
          earliest = std::min(earliest, entry.deliver_at);
        }
        box.ready.WaitUntil(box.mu, earliest);
        continue;
      }
      if (now >= deadline) break;
      box.ready.WaitUntil(box.mu, deadline);
    }

    // Timed out with an empty channel.
    RecordTimeout();
    TraceFault("net.recv.timeout", from, to);
    const bool sender_crashed = faults_.HasCrashed(from, completed_rounds());
    if (attempt >= options_.max_retries) {
      if (sender_crashed) {
        return Status::Unavailable(
            "party " + std::to_string(from) + " crashed; receive " +
            std::to_string(from) + " -> " + std::to_string(to) +
            " cannot complete");
      }
      return Status::DeadlineExceeded(
          "receive timed out on channel " + std::to_string(from) + " -> " +
          std::to_string(to) + " after " + std::to_string(attempt) +
          " retries");
    }
    if (!sender_crashed && !box.retransmit.empty()) {
      // Request retransmission of a dropped message: redelivered after the
      // backoff and charged as fresh traffic, like any resent packet.
      Payload payload = std::move(box.retransmit.front());
      box.retransmit.pop_front();
      lock.Release();
      RecordRetry();
      TraceFault("net.recv.retry", from, to);
      RecordSend(from, to, payload.size());
      if (backoff > 0.0) std::this_thread::sleep_for(ToDuration(backoff));
      return payload;
    }
    lock.Release();
    if (backoff > 0.0) std::this_thread::sleep_for(ToDuration(backoff));
    backoff *= 2.0;
  }
}

bool ThreadedTransport::HasPending(size_t from, size_t to) const {
  CheckParty(from, to);
  const Mailbox& box = mailbox(from, to);
  MutexLock lock(box.mu);
  const auto now = std::chrono::steady_clock::now();
  return std::any_of(
      box.queue.begin(), box.queue.end(),
      [&](const Entry& entry) { return entry.deliver_at <= now; });
}

void ThreadedTransport::EndRound() {
  completed_rounds_.fetch_add(1, std::memory_order_acq_rel);
  Transport::EndRound();
}

void ThreadedTransport::ArriveRound(size_t party) {
  SQM_CHECK(party < num_parties());
  ReleasableMutexLock lock(round_mu_);
  const uint64_t generation = generation_;
  if (++arrived_ == num_parties()) {
    arrived_ = 0;
    ++generation_;
    completed_rounds_.fetch_add(1, std::memory_order_acq_rel);
    Transport::EndRound();
    lock.Release();
    round_cv_.NotifyAll();
    return;
  }
  while (generation_ == generation) {
    round_cv_.Wait(round_mu_);
  }
}

// Acquiring a vector of mutexes in a loop is beyond the static analysis
// (see the escape-hatch note in core/thread_annotations.h); the fixed
// acquisition order argument below is the manual proof.
size_t ThreadedTransport::Reset() SQM_NO_THREAD_SAFETY_ANALYSIS {
  // Atomic reset: hold every mailbox lock while draining and zeroing the
  // counters, so a concurrent sender can neither land a message in an
  // already-drained box nor be charged against pre-reset accounting. Only
  // Reset ever takes more than one mailbox lock, and it does so in a fixed
  // (channel-index) order, so this cannot deadlock against Send/Receive.
  for (auto& box : mailboxes_) {
    box->mu.Lock();
  }
  size_t dropped = 0;
  std::vector<ResetDrop> per_channel;
  for (size_t index = 0; index < mailboxes_.size(); ++index) {
    auto& box = mailboxes_[index];
    // Dropped count = undelivered queue entries + parked retransmissions,
    // matching LockstepTransport's "every undelivered message" convention.
    const size_t in_box = box->queue.size() + box->retransmit.size();
    dropped += in_box;
    if (in_box > 0) {
      per_channel.push_back(ResetDrop{index / num_parties(),
                                      index % num_parties(), in_box});
    }
    box->queue.clear();
    box->retransmit.clear();
  }
  {
    MutexLock lock(round_mu_);
    arrived_ = 0;
  }
  completed_rounds_.store(0, std::memory_order_release);
  ResetAccounting();
  for (auto& box : mailboxes_) {
    box->mu.Unlock();
    box->space.NotifyAll();
  }
  WarnDroppedOnReset("ThreadedTransport", dropped, per_channel);
  return dropped;
}

}  // namespace sqm
