#ifndef SQM_NET_STATS_H_
#define SQM_NET_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sqm {

/// Serialized width of one payload element when no field-specific width is
/// configured. Transports account bytes with the width the *wire format*
/// needs (derived from the field modulus at the call site, e.g.
/// Field::kWireBytes), not with sizeof() of the in-memory representation.
inline constexpr size_t kDefaultElementWireBytes = 8;

/// Traffic and timing counters for a protocol execution.
///
/// Counting convention (all Transport implementations follow it): only
/// cross-party traffic counts. Self-sends (from == to) model a party
/// keeping its own sub-shares in memory; they are delivered but appear in
/// no counter. `wire_bytes` is accumulated at Send time from the
/// transport's configured serialized element width, so it reflects what a
/// real wire would carry.
struct NetworkStats {
  uint64_t messages = 0;        ///< Cross-party point-to-point sends.
  uint64_t field_elements = 0;  ///< Payload volume in field elements.
  uint64_t rounds = 0;          ///< Synchronous communication rounds.
  uint64_t wire_bytes = 0;      ///< Serialized payload bytes on the wire.

  uint64_t bytes() const { return wire_bytes; }

  NetworkStats& operator+=(const NetworkStats& other) {
    messages += other.messages;
    field_elements += other.field_elements;
    rounds += other.rounds;
    wire_bytes += other.wire_bytes;
    return *this;
  }
};

/// Per-directed-channel traffic counters (rounds are global, not per-link).
struct ChannelStats {
  size_t from = 0;
  size_t to = 0;
  uint64_t messages = 0;
  uint64_t field_elements = 0;
  uint64_t wire_bytes = 0;
};

/// Traffic attributed to one protocol phase (see Transport::SetPhase).
struct PhaseStats {
  std::string phase;
  NetworkStats traffic;
};

/// Full accounting snapshot of a Transport: global totals, the per-channel
/// and per-phase breakdowns, fault/retry counters, and both clocks.
struct TransportStats {
  size_t num_parties = 0;
  NetworkStats totals;
  /// One entry per directed channel with nonzero traffic.
  std::vector<ChannelStats> channels;
  /// One entry per phase label, in first-use order.
  std::vector<PhaseStats> phases;

  // Fault and reliability counters.
  uint64_t drops_injected = 0;  ///< Frames TCP chaos dropped (partition).
  /// Always 0: no transport delays or reorders messages. Kept because
  /// perfbench/src/tracing_transport_check.cc prints both.
  uint64_t delays_injected = 0;
  uint64_t reorders_injected = 0;
  uint64_t receive_timeouts = 0;  ///< Blocking receives that timed out.
  uint64_t retries = 0;           ///< TCP links re-established.
  uint64_t crash_losses = 0;      ///< Sends swallowed by a crashed party.

  /// Simulated communication time (rounds * per-round latency).
  double simulated_seconds = 0.0;
  /// Wall-clock lifetime of the transport up to this snapshot.
  double wall_seconds = 0.0;
};

}  // namespace sqm

#endif  // SQM_NET_STATS_H_
