#include "net/tcp/telemetry.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "core/json.h"
#include "core/logging.h"
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

/// Re-serializes a parsed JsonValue, preserving exact integers. Lets the
/// fleet document embed a party's snapshot as a real JSON value instead
/// of splicing raw text.
void WriteJsonValueInto(JsonWriter& writer, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      // JsonWriter has no null; the fleet schema never produces one
      // (absent members are skipped), so encode as false defensively.
      writer.Value(false);
      break;
    case JsonValue::Kind::kBool:
      writer.Value(value.bool_value);
      break;
    case JsonValue::Kind::kNumber:
      if (value.is_integer) {
        if (value.is_negative) {
          writer.Value(value.int_value);
        } else {
          writer.Value(value.uint_value);
        }
      } else {
        writer.Value(value.number);
      }
      break;
    case JsonValue::Kind::kString:
      writer.Value(value.string_value);
      break;
    case JsonValue::Kind::kArray:
      writer.BeginArray();
      for (const JsonValue& item : value.items) {
        WriteJsonValueInto(writer, item);
      }
      writer.EndArray();
      break;
    case JsonValue::Kind::kObject:
      writer.BeginObject();
      for (const auto& [key, member] : value.members) {
        writer.Key(key);
        WriteJsonValueInto(writer, member);
      }
      writer.EndObject();
      break;
  }
}

double NumberOr(const JsonValue* value, double fallback) {
  if (value == nullptr || value->kind != JsonValue::Kind::kNumber) {
    return fallback;
  }
  return value->number;
}

uint64_t UintOr(const JsonValue* value, uint64_t fallback) {
  if (value == nullptr || value->kind != JsonValue::Kind::kNumber ||
      !value->is_integer || value->is_negative) {
    return fallback;
  }
  return value->uint_value;
}

}  // namespace

std::vector<uint64_t> PackTelemetryJson(const std::string& json) {
  std::vector<uint64_t> payload;
  payload.reserve(1 + (json.size() + 7) / 8);
  payload.push_back(static_cast<uint64_t>(json.size()));
  for (size_t i = 0; i < json.size(); i += 8) {
    uint64_t word = 0;
    for (size_t k = 0; k < 8 && i + k < json.size(); ++k) {
      word |= static_cast<uint64_t>(static_cast<uint8_t>(json[i + k]))
              << (8 * k);
    }
    payload.push_back(word);
  }
  return payload;
}

Result<std::string> UnpackTelemetryJson(const std::vector<uint64_t>& payload) {
  if (payload.empty()) {
    return Status::IntegrityViolation("telemetry snapshot payload empty");
  }
  const uint64_t len = payload[0];
  if (len > (payload.size() - 1) * 8) {
    return Status::IntegrityViolation(
        "telemetry snapshot length " + std::to_string(len) +
        " exceeds payload of " + std::to_string(payload.size() - 1) +
        " words");
  }
  std::string json;
  json.resize(static_cast<size_t>(len));
  for (size_t i = 0; i < json.size(); ++i) {
    json[i] = static_cast<char>(
        (payload[1 + i / 8] >> (8 * (i % 8))) & 0xFF);
  }
  return json;
}

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

Status TelemetryClient::SendSnapshot(const std::string& json) {
  return SendFrame(FrameType::kTelemetrySnapshot, PackTelemetryJson(json));
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
  // Backdate the first tick so the initial snapshot (and the first durable
  // trace rewrite) lands immediately: a party crashing early in the
  // protocol must still have shipped a baseline.
  auto last_tick = std::chrono::steady_clock::now() -
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           options_.snapshot_interval_seconds));
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
        options_.snapshot_interval_seconds) {
      last_tick = now;
      if (options_.on_tick) options_.on_tick();
      if (options_.build_snapshot) {
        if (!SendSnapshot(options_.build_snapshot()).ok()) {
          running_.store(false);
          return;
        }
      }
    }
  }
}

void TelemetryClient::Stop(const std::string& final_snapshot_json) {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  if (sock_.valid() && running_.load()) {
    // Best effort: the protocol is already finished, so a dead coordinator
    // costs nothing but this party's row in the fleet view.
    if (!final_snapshot_json.empty()) {
      (void)SendSnapshot(final_snapshot_json);
    }
    (void)SendFrame(FrameType::kBye, {});
  }
  running_.store(false);
  sock_.Close();
}

// ---------------------------------------------------------------------------
// TelemetryServer

TelemetryServer::TelemetryServer(uint64_t session_key, uint64_t run_id,
                                 size_t num_parties)
    : session_key_(session_key), run_id_(run_id) {
  MutexLock lock(mu_);
  parties_.resize(num_parties);
}

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
  size_t num_parties = 0;
  {
    MutexLock lock(mu_);
    num_parties = parties_.size();
  }
  if (opener.type != FrameType::kTelemetryHello ||
      opener.run_id != run_id_ || opener.from >= num_parties) {
    return;
  }
  const uint32_t party = opener.from;
  const uint32_t incarnation = opener.incarnation;
  {
    MutexLock lock(mu_);
    PartyTelemetry& state = parties_[party];
    state.seen = true;
    state.connected = true;
    state.incarnation = incarnation;
    state.clock_rtt_micros = -1;  // Fresh estimate for this incarnation.
  }

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
      {
        MutexLock lock(mu_);
        PartyTelemetry& state = parties_[party];
        if (state.clock_rtt_micros < 0 || rtt < state.clock_rtt_micros) {
          state.clock_rtt_micros = rtt;
          state.clock_offset_micros = offset;
          state.offsets_by_incarnation[incarnation] = offset;
        }
      }
      outstanding_t_c0 = 0;
      if (++probes_done < kClockProbes) {
        if (!send_probe()) break;
      }
      continue;
    }
    if (received.type == FrameType::kTelemetrySnapshot) {
      Result<std::string> json = UnpackTelemetryJson(received.payload);
      if (json.ok()) ApplySnapshot(party, json.ValueOrDie());
      continue;
    }
    break;  // Data/handshake frames never belong on this stream.
  }
  MutexLock lock(mu_);
  parties_[party].connected = false;
}

void TelemetryServer::ApplySnapshot(uint32_t party, const std::string& json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    SQM_LOG(kWarning) << "telemetry: party " << party
                      << " sent an unparseable snapshot: "
                      << parsed.status();
    return;
  }
  const JsonValue& doc = parsed.ValueOrDie();
  MutexLock lock(mu_);
  PartyTelemetry& state = parties_[party];
  ++state.snapshots;
  state.latest_json = json;
  state.incarnation = static_cast<uint32_t>(
      UintOr(doc.Find("incarnation"), state.incarnation));
  const JsonValue* final_member = doc.Find("final");
  if (final_member != nullptr &&
      final_member->kind == JsonValue::Kind::kBool) {
    state.final_seen = state.final_seen || final_member->bool_value;
  }
  const JsonValue* phase = doc.Find("phase");
  if (phase != nullptr && phase->kind == JsonValue::Kind::kString) {
    state.phase = phase->string_value;
  }
  if (const JsonValue* net = doc.Find("net");
      net != nullptr && net->kind == JsonValue::Kind::kObject) {
    state.net_messages = UintOr(net->Find("messages"), state.net_messages);
    state.net_field_elements =
        UintOr(net->Find("field_elements"), state.net_field_elements);
    state.net_wire_bytes =
        UintOr(net->Find("wire_bytes"), state.net_wire_bytes);
    state.net_rounds = UintOr(net->Find("rounds"), state.net_rounds);
  }
  state.ledger_epsilon =
      NumberOr(doc.Find("ledger_epsilon"), state.ledger_epsilon);
  state.beaver_pool_depth =
      NumberOr(doc.Find("beaver_pool_depth"), state.beaver_pool_depth);
}

PartyTelemetry TelemetryServer::Party(size_t party) const {
  MutexLock lock(mu_);
  SQM_CHECK(party < parties_.size());
  return parties_[party];
}

std::vector<PartyTelemetry> TelemetryServer::Fleet() const {
  MutexLock lock(mu_);
  return parties_;
}

Result<int64_t> TelemetryServer::ClockOffsetMicros(
    size_t party, uint32_t incarnation) const {
  MutexLock lock(mu_);
  if (party >= parties_.size()) {
    return Status::InvalidArgument("party out of range");
  }
  const auto it = parties_[party].offsets_by_incarnation.find(incarnation);
  if (it == parties_[party].offsets_by_incarnation.end()) {
    return Status::NotFound("no clock estimate for party " +
                            std::to_string(party) + " incarnation " +
                            std::to_string(incarnation));
  }
  return it->second;
}

std::string TelemetryServer::FleetMetricsJson() const {
  const std::vector<PartyTelemetry> fleet = Fleet();
  JsonWriter writer;
  writer.BeginObject();
  writer.Field("run_id", run_id_);
  writer.BeginArray("parties");
  for (size_t j = 0; j < fleet.size(); ++j) {
    const PartyTelemetry& state = fleet[j];
    writer.BeginObject();
    writer.Field("party", static_cast<uint64_t>(j));
    writer.Field("connected", state.connected);
    writer.Field("final", state.final_seen);
    writer.Field("incarnation", static_cast<uint64_t>(state.incarnation));
    writer.Field("snapshots", state.snapshots);
    writer.Field("clock_offset_micros", state.clock_offset_micros);
    writer.Field("clock_rtt_micros", state.clock_rtt_micros);
    writer.Field("phase", state.phase);
    writer.Key("net");
    writer.BeginObject();
    writer.Field("messages", state.net_messages);
    writer.Field("field_elements", state.net_field_elements);
    writer.Field("wire_bytes", state.net_wire_bytes);
    writer.Field("rounds", state.net_rounds);
    writer.EndObject();
    writer.Field("ledger_epsilon", state.ledger_epsilon);
    writer.Field("beaver_pool_depth", state.beaver_pool_depth);
    if (!state.latest_json.empty()) {
      Result<JsonValue> parsed = ParseJson(state.latest_json);
      if (parsed.ok()) {
        writer.Key("state");
        WriteJsonValueInto(writer, parsed.ValueOrDie());
      }
    }
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.str();
}

std::string TelemetryServer::RenderFleetTable() const {
  const std::vector<PartyTelemetry> fleet = Fleet();
  std::string out =
      "party inc state phase        msgs     elems        bytes  rounds"
      "   eps      offset_us\n";
  for (size_t j = 0; j < fleet.size(); ++j) {
    const PartyTelemetry& state = fleet[j];
    const char* status = !state.seen        ? "-"
                         : state.final_seen ? "final"
                         : state.connected  ? "live"
                                            : "lost";
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%5zu %3u %-5s %-10s %6" PRIu64 " %9" PRIu64 " %12" PRIu64
                  " %7" PRIu64 " %7.3f %10" PRId64 "\n",
                  j, state.incarnation, status,
                  state.phase.empty() ? "-" : state.phase.c_str(),
                  state.net_messages, state.net_field_elements,
                  state.net_wire_bytes, state.net_rounds,
                  state.ledger_epsilon, state.clock_offset_micros);
    out += line;
  }
  return out;
}

}  // namespace sqm::net
