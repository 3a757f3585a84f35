#include "net/transport.h"

#include "core/logging.h"

namespace sqm {

Transport::Transport(size_t num_parties, double per_round_latency_seconds,
                     size_t element_wire_bytes)
    : num_parties_(num_parties),
      per_round_latency_(per_round_latency_seconds),
      element_wire_bytes_(element_wire_bytes),
      start_(std::chrono::steady_clock::now()),
      channels_(num_parties * num_parties) {
  SQM_CHECK(num_parties >= 1);
  SQM_CHECK(per_round_latency_seconds >= 0.0);
  SQM_CHECK(element_wire_bytes >= 1);
  for (size_t from = 0; from < num_parties_; ++from) {
    for (size_t to = 0; to < num_parties_; ++to) {
      channels_[ChannelIndex(from, to)].from = from;
      channels_[ChannelIndex(from, to)].to = to;
    }
  }
  phases_.push_back(PhaseStats{"", NetworkStats{}});
}

Transport::~Transport() = default;

void Transport::CheckParty(size_t from, size_t to) const {
  SQM_CHECK(from < num_parties_ && to < num_parties_);
}

void Transport::EndRound() { RecordRound(); }

double Transport::SimulatedSeconds() const {
  MutexLock lock(mu_);
  return static_cast<double>(totals_.rounds) * per_round_latency_;
}

NetworkStats Transport::stats() const {
  MutexLock lock(mu_);
  return totals_;
}

TransportStats Transport::Snapshot() const {
  MutexLock lock(mu_);
  TransportStats snapshot;
  snapshot.num_parties = num_parties_;
  snapshot.totals = totals_;
  for (const ChannelStats& channel : channels_) {
    if (channel.messages > 0) snapshot.channels.push_back(channel);
  }
  for (const PhaseStats& phase : phases_) {
    if (phase.traffic.messages > 0 || phase.traffic.rounds > 0) {
      snapshot.phases.push_back(phase);
    }
  }
  snapshot.drops_injected = drops_;
  snapshot.receive_timeouts = timeouts_;
  snapshot.retries = retries_;
  snapshot.crash_losses = crash_losses_;
  snapshot.simulated_seconds =
      static_cast<double>(totals_.rounds) * per_round_latency_;
  snapshot.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return snapshot;
}

void Transport::SetPhase(const std::string& phase) {
  MutexLock lock(mu_);
  size_t index = phases_.size();
  for (size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].phase == phase) {
      index = i;
      break;
    }
  }
  if (index == phases_.size()) {
    phases_.push_back(PhaseStats{phase, NetworkStats{}});
  }
  current_phase_ = index;
}

std::string Transport::phase() const {
  MutexLock lock(mu_);
  return phases_[current_phase_].phase;
}

void Transport::SetInterceptor(MessageInterceptor* interceptor) {
  MutexLock lock(mu_);
  interceptor_ = interceptor;
}

MessageInterceptor* Transport::interceptor() const {
  MutexLock lock(mu_);
  return interceptor_;
}

std::vector<Transport::Payload> Transport::InterceptSend(size_t from,
                                                         size_t to,
                                                         Payload payload) {
  MessageInterceptor* hook;
  uint64_t round;
  std::string phase_label;
  {
    MutexLock lock(mu_);
    hook = interceptor_;
    round = totals_.rounds;
    phase_label = phases_[current_phase_].phase;
  }
  std::vector<Payload> deliveries;
  if (hook == nullptr || from == to) {
    deliveries.push_back(std::move(payload));
    return deliveries;
  }
  const MessageInterceptor::WireContext context{from, to, round,
                                                std::move(phase_label)};
  MessageInterceptor::SendVerdict verdict = hook->OnSend(context, payload);
  if (!verdict.swallow) deliveries.push_back(std::move(payload));
  for (Payload& replay : verdict.replays) {
    deliveries.push_back(std::move(replay));
  }
  return deliveries;
}

void Transport::RecordSend(size_t from, size_t to, size_t elements) {
  const uint64_t bytes =
      static_cast<uint64_t>(elements) * element_wire_bytes_;
  MutexLock lock(mu_);
  totals_.messages += 1;
  totals_.field_elements += elements;
  totals_.wire_bytes += bytes;
  ChannelStats& channel = channels_[ChannelIndex(from, to)];
  channel.messages += 1;
  channel.field_elements += elements;
  channel.wire_bytes += bytes;
  NetworkStats& phase = phases_[current_phase_].traffic;
  phase.messages += 1;
  phase.field_elements += elements;
  phase.wire_bytes += bytes;
}

void Transport::RecordRound() {
  MutexLock lock(mu_);
  totals_.rounds += 1;
  phases_[current_phase_].traffic.rounds += 1;
}

void Transport::RecordDrop() {
  MutexLock lock(mu_);
  ++drops_;
}

void Transport::RecordTimeout() {
  MutexLock lock(mu_);
  ++timeouts_;
}

void Transport::RecordRetry() {
  MutexLock lock(mu_);
  ++retries_;
}

void Transport::RecordCrashLoss() {
  MutexLock lock(mu_);
  ++crash_losses_;
}

void Transport::WarnDroppedOnReset(const char* transport_name,
                                   size_t dropped) {
  if (dropped == 0) return;
  SQM_LOG(kWarning) << transport_name << "::Reset dropped " << dropped
                    << " undelivered message(s); a correct synchronous "
                       "protocol drains every round";
}

void Transport::ResetAccounting() {
  MutexLock lock(mu_);
  totals_ = NetworkStats{};
  for (ChannelStats& channel : channels_) {
    channel.messages = 0;
    channel.field_elements = 0;
    channel.wire_bytes = 0;
  }
  phases_.clear();
  phases_.push_back(PhaseStats{"", NetworkStats{}});
  current_phase_ = 0;
  drops_ = timeouts_ = retries_ = crash_losses_ = 0;
}

PhaseScope::PhaseScope(Transport* transport, const std::string& phase)
    : transport_(transport) {
  if (transport_ != nullptr) {
    previous_ = transport_->phase();
    transport_->SetPhase(phase);
  }
}

PhaseScope::~PhaseScope() {
  if (transport_ != nullptr) transport_->SetPhase(previous_);
}

}  // namespace sqm
