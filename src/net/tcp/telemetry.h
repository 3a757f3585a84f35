#ifndef SQM_NET_TCP_TELEMETRY_H_
#define SQM_NET_TCP_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "net/tcp/frame.h"
#include "net/tcp/socket.h"

namespace sqm::net {

/// Pseudo party id the coordinator uses on the telemetry control stream.
/// Real party ids are roster indices (< n), so the value can never collide.
inline constexpr uint32_t kTelemetryCoordinatorId = 0xFFFFFFFFu;

struct TelemetryClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint64_t session_key = 0;
  uint64_t run_id = 0;
  uint32_t party = 0;
  uint32_t incarnation = 0;
  double connect_timeout_seconds = 5.0;
  /// Invoked once per tick (every kTickSeconds in telemetry.cc, 0.25 s) on
  /// the telemetry thread, the first time right after Start. sqm-party
  /// uses it to rewrite the durable trace file, so a SIGKILL still leaves
  /// the pre-crash spans on disk.
  std::function<void()> on_tick;
};

/// The party-side half of the telemetry control stream: one background
/// thread holding a dedicated TCP connection to the coordinator, answering
/// its clock-offset probes and running the tick. Purely observational — it
/// shares no state with the protocol transport, and a party whose
/// telemetry connection fails runs to completion regardless.
class TelemetryClient {
 public:
  explicit TelemetryClient(TelemetryClientOptions options);
  ~TelemetryClient();

  /// Connects and sends kTelemetryHello, then spawns the streaming thread.
  /// Failure is not fatal to the party — the caller logs and proceeds.
  Status Start();

  /// Stops the streaming thread, says kBye and closes.
  void Stop();

  bool running() const { return running_.load(); }

 private:
  void Run();
  Status SendFrame(FrameType type, std::vector<uint64_t> payload);

  TelemetryClientOptions options_;
  Socket sock_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  uint64_t next_seq_ = 1;  ///< Touched by Run(), and by Stop() after join.
};

/// The coordinator-side end of the control streams: accepts party
/// telemetry streams on a pre-bound listener and runs the clock-offset
/// exchange against each (party, incarnation).
class TelemetryServer {
 public:
  TelemetryServer(uint64_t session_key, uint64_t run_id, size_t num_parties);
  ~TelemetryServer();

  /// Adopts the listener and spawns the accept loop.
  Status Start(Socket listener);

  /// Stops accepting, joins every stream handler. Idempotent.
  void Stop();

  /// Clock offset (party trace clock -> coordinator trace clock) measured
  /// for the given incarnation; kNotFound if that incarnation never
  /// completed a probe.
  Result<int64_t> ClockOffsetMicros(size_t party, uint32_t incarnation) const;

 private:
  void AcceptLoop();
  void ServeStream(Socket sock);

  const uint64_t session_key_;
  const uint64_t run_id_;
  const size_t num_parties_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  Socket listener_;
  std::thread accept_thread_;
  std::vector<std::thread> handlers_;  ///< Appended only by AcceptLoop.
  mutable Mutex mu_;
  /// Keyed by (party, incarnation): add the offset to a timestamp on that
  /// process's trace clock to land on the coordinator's. Estimated
  /// NTP-style from the probe with the smallest round trip.
  std::map<std::pair<uint32_t, uint32_t>, int64_t> offsets_
      SQM_GUARDED_BY(mu_);
};

}  // namespace sqm::net

#endif  // SQM_NET_TCP_TELEMETRY_H_
