#include "net/lockstep.h"

#include "core/logging.h"
#include "obs/trace.h"

namespace sqm {

LockstepTransport::LockstepTransport(size_t num_parties,
                                     double per_round_latency_seconds,
                                     size_t element_wire_bytes)
    : Transport(num_parties, per_round_latency_seconds, element_wire_bytes),
      queues_(num_parties * num_parties) {}

void LockstepTransport::ScheduleCrashes(
    const std::vector<CrashEvent>& crashes) {
  for (const CrashEvent& event : crashes) {
    SQM_CHECK(event.party < num_parties());
  }
  crashes_ = crashes;
}

void LockstepTransport::Send(size_t from, size_t to, Payload payload) {
  CheckParty(from, to);
  if (from != to && !crashes_.empty() &&
      HasCrashed(crashes_, from, stats().rounds)) {
    RecordCrashLoss();
    obs::Tracer::Global().Instant("net.fault.crash_loss", "net",
                                  {{"from", static_cast<int64_t>(from)},
                                   {"to", static_cast<int64_t>(to)}});
    return;
  }
  obs::Span span("net.send", "net");
  span.AddArg("from", static_cast<int64_t>(from));
  span.AddArg("to", static_cast<int64_t>(to));
  // The interceptor (adversarial harness) sees the message before any
  // accounting; a swallowed message never existed on the wire, a replay
  // counts as one more sent message.
  for (Payload& delivered : InterceptSend(from, to, std::move(payload))) {
    if (from != to) RecordSend(from, to, delivered.size());
    queues_[ChannelIndex(from, to)].push_back(std::move(delivered));
  }
}

Result<Transport::Payload> LockstepTransport::Receive(size_t from,
                                                      size_t to) {
  CheckParty(from, to);
  auto& queue = queues_[ChannelIndex(from, to)];
  if (queue.empty() && from != to &&
      HasCrashed(crashes_, from, stats().rounds)) {
    return Status::Unavailable("party " + std::to_string(from) +
                               " crashed; channel " + std::to_string(from) +
                               " -> " + std::to_string(to) + " is dead");
  }
  if (queue.empty()) {
    return Status::FailedPrecondition(
        "receive with no pending message on channel " +
        std::to_string(from) + " -> " + std::to_string(to));
  }
  Payload payload = std::move(queue.front());
  queue.pop_front();
  return payload;
}

bool LockstepTransport::HasPending(size_t from, size_t to) const {
  CheckParty(from, to);
  return !queues_[ChannelIndex(from, to)].empty();
}

size_t LockstepTransport::Reset() {
  size_t dropped = 0;
  for (auto& queue : queues_) {
    dropped += queue.size();
    queue.clear();
  }
  WarnDroppedOnReset("LockstepTransport", dropped);
  ResetAccounting();
  return dropped;
}

}  // namespace sqm
