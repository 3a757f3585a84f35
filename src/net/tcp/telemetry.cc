#include "net/tcp/telemetry.h"

#include <chrono>
#include <utility>

#include "obs/obs.h"

namespace sqm::net {
namespace {

/// Clock probes fired per telemetry stream (one burst per incarnation).
/// The estimate keeps the probe with the smallest round trip, so a handful
/// of tries rides out scheduler noise without a long calibration phase.
constexpr int kClockProbes = 5;

/// Receive-timeout granularity of both ends' stream loops: how quickly a
/// stop flag is noticed and the upper bound probe echoes wait on top of the
/// true network delay.
constexpr double kPollSeconds = 0.05;

/// Period of the client's on_tick (sqm-party's durable trace rewrite).
constexpr double kTickSeconds = 0.25;

Status SendTelemetryFrame(const Socket& sock, const Frame& frame,
                          uint64_t session_key) {
  const std::vector<uint8_t> wire = EncodeFrame(frame, session_key);
  return WriteAll(sock, wire.data(), wire.size());
}

/// Reads one frame off a telemetry stream. A receive timeout at a frame
/// boundary surfaces as kDeadlineExceeded so the caller can do periodic
/// housekeeping; a timeout mid-frame keeps waiting (the bytes are already
/// committed on the stream) unless `stop` turns true.
Result<Frame> ReadTelemetryFrame(const Socket& sock, uint64_t session_key,
                                 const std::atomic<bool>& stop) {
  uint8_t len_bytes[4];
  size_t got = 0;
  for (;;) {
    const Status header = ReadFull(sock, len_bytes, 4, &got);
    if (header.ok()) break;
    if (header.code() == StatusCode::kDeadlineExceeded) {
      if (got == 0) return header;  // Frame boundary: housekeeping slot.
      if (stop.load()) return Status::Unavailable("telemetry stopping");
      continue;
    }
    return header;
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(len_bytes[i]) << (8 * i);
  }
  if (len < 8 || len > MaxEncodedFrameBytes(kMaxFrameElements)) {
    return Status::IntegrityViolation("telemetry frame length " +
                                      std::to_string(len) + " out of range");
  }
  std::vector<uint8_t> body(len);
  got = 0;
  for (;;) {
    const Status read = ReadFull(sock, body.data(), len, &got);
    if (read.ok()) break;
    if (read.code() == StatusCode::kDeadlineExceeded) {
      if (stop.load()) return Status::Unavailable("telemetry stopping");
      continue;
    }
    return read;
  }
  return DecodeFrame(body.data(), len, session_key);
}

}  // namespace

// ---------------------------------------------------------------------------
// TelemetryClient

TelemetryClient::TelemetryClient(TelemetryClientOptions options)
    : options_(std::move(options)) {}

TelemetryClient::~TelemetryClient() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

Status TelemetryClient::SendFrame(FrameType type,
                                  std::vector<uint64_t> payload) {
  Frame frame;
  frame.type = type;
  frame.from = options_.party;
  frame.to = kTelemetryCoordinatorId;
  frame.incarnation = options_.incarnation;
  frame.seq = next_seq_++;
  frame.run_id = options_.run_id;
  frame.payload = std::move(payload);
  return SendTelemetryFrame(sock_, frame, options_.session_key);
}

Status TelemetryClient::Start() {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.connect_timeout_seconds));
  Result<Socket> sock = ConnectTo(options_.host, options_.port, deadline);
  if (!sock.ok()) return sock.status();
  sock_ = std::move(sock).ValueOrDie();
  SQM_RETURN_NOT_OK(SetRecvTimeout(sock_, kPollSeconds));
  SQM_RETURN_NOT_OK(SendFrame(FrameType::kTelemetryHello, {}));
  running_.store(true);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void TelemetryClient::Run() {
  // Backdate the first tick so the first durable trace rewrite lands
  // immediately.
  auto last_tick = std::chrono::steady_clock::now() -
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(kTickSeconds));
  while (!stop_.load()) {
    Result<Frame> frame =
        ReadTelemetryFrame(sock_, options_.session_key, stop_);
    if (!frame.ok()) {
      if (frame.status().code() != StatusCode::kDeadlineExceeded) {
        running_.store(false);  // Coordinator gone; party runs on.
        return;
      }
    } else {
      const Frame& received = frame.ValueOrDie();
      if (received.run_id != options_.run_id ||
          received.from != kTelemetryCoordinatorId) {
        running_.store(false);
        return;
      }
      if (received.type == FrameType::kBye) {
        running_.store(false);
        return;
      }
      if (received.type == FrameType::kTelemetryClock &&
          received.payload.size() == 1) {
        // Echo [t_c0, t_p]: the probe's coordinator send time plus our own
        // receive time, stamped on this process's trace clock.
        const uint64_t t_p = obs::NowMicros();
        if (!SendFrame(FrameType::kTelemetryClock,
                       {received.payload[0], t_p})
                 .ok()) {
          running_.store(false);
          return;
        }
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_tick).count() >=
        kTickSeconds) {
      last_tick = now;
      if (options_.on_tick) options_.on_tick();
    }
  }
}

void TelemetryClient::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  if (sock_.valid() && running_.load()) {
    // Best effort: the protocol is already finished.
    (void)SendFrame(FrameType::kBye, {});
  }
  running_.store(false);
  sock_.Close();
}

// ---------------------------------------------------------------------------
// TelemetryServer

TelemetryServer::TelemetryServer(uint64_t session_key, uint64_t run_id,
                                 size_t num_parties)
    : session_key_(session_key), run_id_(run_id), num_parties_(num_parties) {}

TelemetryServer::~TelemetryServer() { Stop(); }

Status TelemetryServer::Start(Socket listener) {
  if (!listener.valid()) {
    return Status::InvalidArgument("telemetry listener is not valid");
  }
  listener_ = std::move(listener);
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TelemetryServer::Stop() {
  if (!started_.load()) return;
  stop_.store(true);
  ShutdownBoth(listener_);
  if (accept_thread_.joinable()) accept_thread_.join();
  // AcceptLoop has exited, so handlers_ is frozen and safe to walk.
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  handlers_.clear();
  listener_.Close();
  started_.store(false);
}

void TelemetryServer::AcceptLoop() {
  while (!stop_.load()) {
    Result<Socket> conn = AcceptWithDeadline(
        listener_, std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(200));
    if (!conn.ok()) {
      if (conn.status().code() == StatusCode::kDeadlineExceeded) continue;
      return;  // Listener closed.
    }
    Socket sock = std::move(conn).ValueOrDie();
    if (!SetRecvTimeout(sock, kPollSeconds).ok()) continue;
    handlers_.emplace_back(
        [this, moved = std::make_shared<Socket>(std::move(sock))] {
          ServeStream(std::move(*moved));
        });
  }
}

void TelemetryServer::ServeStream(Socket sock) {
  // The stream must open with a verified hello naming the party.
  Result<Frame> hello = ReadTelemetryFrame(sock, session_key_, stop_);
  while (!hello.ok() &&
         hello.status().code() == StatusCode::kDeadlineExceeded &&
         !stop_.load()) {
    hello = ReadTelemetryFrame(sock, session_key_, stop_);
  }
  if (!hello.ok()) return;
  const Frame opener = std::move(hello).ValueOrDie();
  if (opener.type != FrameType::kTelemetryHello ||
      opener.run_id != run_id_ || opener.from >= num_parties_) {
    return;
  }
  const uint32_t party = opener.from;
  const uint32_t incarnation = opener.incarnation;

  uint64_t next_seq = 1;
  auto send_frame = [&](FrameType type,
                        std::vector<uint64_t> payload) -> Status {
    Frame frame;
    frame.type = type;
    frame.from = kTelemetryCoordinatorId;
    frame.to = party;
    frame.incarnation = incarnation;
    frame.seq = next_seq++;
    frame.run_id = run_id_;
    frame.payload = std::move(payload);
    return SendTelemetryFrame(sock, frame, session_key_);
  };

  int probes_done = 0;
  int64_t best_rtt = -1;
  uint64_t outstanding_t_c0 = 0;
  auto send_probe = [&]() -> bool {
    outstanding_t_c0 = obs::NowMicros();
    return send_frame(FrameType::kTelemetryClock, {outstanding_t_c0}).ok();
  };
  if (!send_probe()) return;

  for (;;) {
    Result<Frame> frame = ReadTelemetryFrame(sock, session_key_, stop_);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        if (stop_.load()) break;
        continue;
      }
      break;  // EOF, reset, or a frame that failed verification.
    }
    const Frame& received = frame.ValueOrDie();
    if (received.run_id != run_id_ || received.from != party) break;
    if (received.type == FrameType::kBye) break;
    if (received.type == FrameType::kTelemetryClock) {
      if (received.payload.size() != 2 ||
          received.payload[0] != outstanding_t_c0 || outstanding_t_c0 == 0) {
        continue;  // Stale or malformed echo; the next probe re-syncs.
      }
      const uint64_t t_c1 = obs::NowMicros();
      const int64_t t_c0 = static_cast<int64_t>(received.payload[0]);
      const int64_t t_p = static_cast<int64_t>(received.payload[1]);
      const int64_t rtt = static_cast<int64_t>(t_c1) - t_c0;
      // NTP-style midpoint estimate: assuming symmetric path delay, the
      // party stamped t_p when the coordinator clock read (t_c0+t_c1)/2.
      const int64_t offset = (t_c0 + static_cast<int64_t>(t_c1)) / 2 - t_p;
      if (best_rtt < 0 || rtt < best_rtt) {
        best_rtt = rtt;
        MutexLock lock(mu_);
        offsets_[{party, incarnation}] = offset;
      }
      outstanding_t_c0 = 0;
      if (++probes_done < kClockProbes) {
        if (!send_probe()) break;
      }
      continue;
    }
    break;  // Data/handshake frames never belong on this stream.
  }
}

Result<int64_t> TelemetryServer::ClockOffsetMicros(
    size_t party, uint32_t incarnation) const {
  if (party >= num_parties_) {
    return Status::InvalidArgument("party out of range");
  }
  MutexLock lock(mu_);
  const auto it = offsets_.find({static_cast<uint32_t>(party), incarnation});
  if (it == offsets_.end()) {
    return Status::NotFound("no clock estimate for party " +
                            std::to_string(party) + " incarnation " +
                            std::to_string(incarnation));
  }
  return it->second;
}

}  // namespace sqm::net
