#ifndef PERFBENCH_TRACING_TRANSPORT_H_
#define PERFBENCH_TRACING_TRANSPORT_H_

#include <cstdint>
#include <utility>

#include "net/transport.h"
#include "obs/trace.h"

namespace perfbench {

/// Transport decorator owned by the benchmark: forwards every virtual call
/// to `inner` and wraps each Send/Receive in a benchmark span
/// ("bench.send" / "bench.recv", arg "peer"), so the traced run can split a
/// party's time into sending and waiting without a span inside the program.
///
/// Transport::SetPhase is not virtual, so protocol code labels THIS object;
/// the label is copied into `inner` before every call that accounts
/// traffic (Send stamps it into TCP frames and the per-phase counters,
/// EndRound charges the round to it). With that, releases and the inner
/// transport's TransportStats are the same with and without the decorator
/// (tracing_transport_check.cc proves both). The decorator keeps no traffic
/// counters of its own: read TransportStats from `inner`.
class TracingTransport : public sqm::Transport {
 public:
  explicit TracingTransport(sqm::Transport* inner)
      : sqm::Transport(inner->num_parties(), inner->per_round_latency(),
                       inner->element_wire_bytes()),
        inner_(inner) {}

  void Send(size_t from, size_t to, Payload payload) override {
    sqm::obs::Span span("bench.send", "bench");
    span.AddArg("peer", static_cast<int64_t>(to));
    SyncPhase();
    inner_->Send(from, to, std::move(payload));
  }

  sqm::Result<Payload> Receive(size_t from, size_t to) override {
    sqm::obs::Span span("bench.recv", "bench");
    span.AddArg("peer", static_cast<int64_t>(from));
    return inner_->Receive(from, to);
  }

  bool HasPending(size_t from, size_t to) const override {
    return inner_->HasPending(from, to);
  }

  void EndRound() override {
    SyncPhase();
    inner_->EndRound();
  }

  size_t Reset() override { return inner_->Reset(); }

 private:
  void SyncPhase() { inner_->SetPhase(phase()); }

  sqm::Transport* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_TRANSPORT_H_
