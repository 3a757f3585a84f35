#ifndef SQM_NET_TCP_TELEMETRY_H_
#define SQM_NET_TCP_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "net/tcp/frame.h"
#include "net/tcp/socket.h"

namespace sqm::net {

/// Pseudo party id the coordinator uses on the telemetry control stream.
/// Real party ids are roster indices (< n), so the value can never collide.
inline constexpr uint32_t kTelemetryCoordinatorId = 0xFFFFFFFFu;

/// Packs a JSON document into a kTelemetrySnapshot payload:
/// word 0 = byte length, then ceil(len/8) words of UTF-8 text,
/// little-endian, zero-padded.
std::vector<uint64_t> PackTelemetryJson(const std::string& json);

/// Inverse of PackTelemetryJson; kIntegrityViolation when the declared
/// byte length does not fit the payload.
Result<std::string> UnpackTelemetryJson(const std::vector<uint64_t>& payload);

struct TelemetryClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint64_t session_key = 0;
  uint64_t run_id = 0;
  uint32_t party = 0;
  uint32_t incarnation = 0;
  double connect_timeout_seconds = 5.0;
  double snapshot_interval_seconds = 0.25;
  /// Builds the JSON state document shipped in each periodic
  /// kTelemetrySnapshot (docs/OBSERVABILITY.md "Snapshot schema").
  std::function<std::string()> build_snapshot;
  /// Invoked once per snapshot interval on the telemetry thread, before
  /// build_snapshot. sqm-party uses it to rewrite the durable trace file,
  /// so a SIGKILL still leaves the pre-crash spans on disk.
  std::function<void()> on_tick;
};

/// The party-side half of the live telemetry channel: one background
/// thread holding a dedicated TCP connection to the coordinator, answering
/// clock-offset probes and shipping periodic state snapshots. Purely
/// observational — it shares no state with the protocol transport, and a
/// party whose telemetry connection fails runs to completion regardless.
class TelemetryClient {
 public:
  explicit TelemetryClient(TelemetryClientOptions options);
  ~TelemetryClient();

  /// Connects and sends kTelemetryHello, then spawns the streaming thread.
  /// Failure is not fatal to the party — the caller logs and proceeds.
  Status Start();

  /// Stops the streaming thread, then ships `final_snapshot_json` (built
  /// by the caller AFTER the protocol finished, from the report's frozen
  /// transport totals, so the fleet view reconciles exactly) and closes.
  void Stop(const std::string& final_snapshot_json);

  bool running() const { return running_.load(); }

 private:
  void Run();
  Status SendFrame(FrameType type, std::vector<uint64_t> payload);
  Status SendSnapshot(const std::string& json);

  TelemetryClientOptions options_;
  Socket sock_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  uint64_t next_seq_ = 1;  ///< Touched by Run(), and by Stop() after join.
};

/// What the coordinator knows about one party's telemetry stream.
struct PartyTelemetry {
  bool seen = false;       ///< A hello ever arrived.
  bool connected = false;  ///< A stream is currently open.
  bool final_seen = false; ///< The party shipped its final snapshot.
  uint32_t incarnation = 0;
  uint64_t snapshots = 0;
  /// Clock alignment for the CURRENT incarnation: add this to a timestamp
  /// on the party's trace clock to land on the coordinator's trace clock.
  /// Estimated NTP-style from the probe with the smallest round trip.
  int64_t clock_offset_micros = 0;
  int64_t clock_rtt_micros = -1;  ///< Best probe RTT; -1 = no estimate yet.
  std::string phase;
  uint64_t net_messages = 0;
  uint64_t net_field_elements = 0;
  uint64_t net_wire_bytes = 0;
  uint64_t net_rounds = 0;
  double ledger_epsilon = 0.0;
  std::string latest_json;  ///< Last full snapshot document, verbatim.
  std::map<uint32_t, int64_t> offsets_by_incarnation;
};

/// The coordinator-side aggregator: accepts party telemetry streams on a
/// pre-bound listener, runs the clock-offset exchange against each
/// incarnation, and folds the per-party snapshots into a fleet view
/// (FleetMetricsJson / RenderFleetTable).
class TelemetryServer {
 public:
  TelemetryServer(uint64_t session_key, uint64_t run_id, size_t num_parties);
  ~TelemetryServer();

  /// Adopts the listener and spawns the accept loop.
  Status Start(Socket listener);

  /// Stops accepting, joins every stream handler. Idempotent.
  void Stop();

  PartyTelemetry Party(size_t party) const;
  std::vector<PartyTelemetry> Fleet() const;

  /// Clock offset (party trace clock -> coordinator trace clock) measured
  /// for the given incarnation; kNotFound if that incarnation never
  /// completed a probe.
  Result<int64_t> ClockOffsetMicros(size_t party, uint32_t incarnation) const;

  /// fleet_metrics.json: {"run_id":..,"parties":[{"party":..,
  /// "connected":..,"final":..,"incarnation":..,"snapshots":..,
  /// "clock_offset_micros":..,"clock_rtt_micros":..,"phase":"..",
  /// "net":{"messages":..,"field_elements":..,"wire_bytes":..,
  /// "rounds":..},"ledger_epsilon":..,
  /// "state":<latest snapshot document or null>},...]}.
  std::string FleetMetricsJson() const;

  /// One-screen live table (the --stats-interval / sqm-top view).
  std::string RenderFleetTable() const;

 private:
  void AcceptLoop();
  void ServeStream(Socket sock);
  void ApplySnapshot(uint32_t party, const std::string& json);

  const uint64_t session_key_;
  const uint64_t run_id_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  Socket listener_;
  std::thread accept_thread_;
  std::vector<std::thread> handlers_;  ///< Appended only by AcceptLoop.
  mutable Mutex mu_;
  std::vector<PartyTelemetry> parties_ SQM_GUARDED_BY(mu_);
};

}  // namespace sqm::net

#endif  // SQM_NET_TCP_TELEMETRY_H_
