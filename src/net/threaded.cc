#include "net/threaded.h"

#include <chrono>

#include "core/logging.h"
#include "obs/trace.h"

namespace sqm {

namespace {

/// Transport-event instant on the party track, with channel context.
void TraceEvent(const char* name, size_t from, size_t to) {
  obs::Tracer::Global().Instant(name, "net",
                                {{"from", static_cast<int64_t>(from)},
                                 {"to", static_cast<int64_t>(to)}});
}

}  // namespace

ThreadedTransport::ThreadedTransport(size_t num_parties,
                                     ThreadedTransportOptions options)
    : Transport(num_parties, /*per_round_latency_seconds=*/0.0,
                kDefaultElementWireBytes),
      options_(std::move(options)),
      mailboxes_(num_parties * num_parties) {
  SQM_CHECK(options_.receive_timeout_seconds > 0.0);
  for (const CrashEvent& event : options_.crashes) {
    SQM_CHECK(event.party < num_parties);
  }
  for (auto& box : mailboxes_) box = std::make_unique<Mailbox>();
}

ThreadedTransport::~ThreadedTransport() = default;

void ThreadedTransport::Enqueue(size_t from, size_t to, Payload payload) {
  Mailbox& box = mailbox(from, to);
  MutexLock lock(box.mu);
  box.queue.push_back(std::move(payload));
  box.ready.NotifyOne();
}

void ThreadedTransport::Send(size_t from, size_t to, Payload payload) {
  CheckParty(from, to);
  if (from == to) {
    // A party's messages to itself live in its own memory: no crash, no
    // accounting, but still through the mailbox so driver- and per-party
    // mode behave identically.
    Enqueue(from, to, std::move(payload));
    return;
  }
  if (HasCrashed(options_.crashes, from, completed_rounds())) {
    RecordCrashLoss();
    TraceEvent("net.fault.crash_loss", from, to);
    return;
  }
  obs::Span span("net.send", "net");
  span.AddArg("from", static_cast<int64_t>(from));
  span.AddArg("to", static_cast<int64_t>(to));
  // The interceptor (adversarial harness) sees the message before any
  // accounting; a swallowed message never existed on the wire, a replay
  // counts as one more sent message.
  for (Payload& delivered : InterceptSend(from, to, std::move(payload))) {
    RecordSend(from, to, delivered.size());
    Enqueue(from, to, std::move(delivered));
  }
}

Result<Transport::Payload> ThreadedTransport::Receive(size_t from,
                                                      size_t to) {
  CheckParty(from, to);
  Mailbox& box = mailbox(from, to);

  // Spans the whole receive including the blocking wait — the "where does
  // party j sit idle" signal in the trace.
  obs::Span span("net.recv.wait", "net");
  span.AddArg("from", static_cast<int64_t>(from));
  span.AddArg("to", static_cast<int64_t>(to));

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.receive_timeout_seconds));
  {
    MutexLock lock(box.mu);
    bool timed_out = false;
    while (box.queue.empty() && !timed_out) {
      timed_out = !box.ready.WaitUntil(box.mu, deadline);
    }
    if (!box.queue.empty()) {
      Payload payload = std::move(box.queue.front());
      box.queue.pop_front();
      return payload;
    }
  }

  RecordTimeout();
  TraceEvent("net.recv.timeout", from, to);
  if (HasCrashed(options_.crashes, from, completed_rounds())) {
    return Status::Unavailable("party " + std::to_string(from) +
                               " crashed; receive " + std::to_string(from) +
                               " -> " + std::to_string(to) +
                               " cannot complete");
  }
  return Status::DeadlineExceeded(
      "receive timed out on channel " + std::to_string(from) + " -> " +
      std::to_string(to) + " after " +
      std::to_string(options_.receive_timeout_seconds) + " s");
}

bool ThreadedTransport::HasPending(size_t from, size_t to) const {
  CheckParty(from, to);
  const Mailbox& box = mailbox(from, to);
  MutexLock lock(box.mu);
  return !box.queue.empty();
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
    auto& queue = mailboxes_[index]->queue;
    if (queue.empty()) continue;
    dropped += queue.size();
    per_channel.push_back(
        ResetDrop{index / num_parties(), index % num_parties(), queue.size()});
    queue.clear();
  }
  {
    MutexLock lock(round_mu_);
    arrived_ = 0;
  }
  completed_rounds_.store(0, std::memory_order_release);
  ResetAccounting();
  for (auto& box : mailboxes_) {
    box->mu.Unlock();
  }
  WarnDroppedOnReset("ThreadedTransport", dropped, per_channel);
  return dropped;
}

}  // namespace sqm
