#include "net/tcp/party_config.h"

#include "core/json.h"

namespace sqm {
namespace net {
namespace {

Status MissingField(const std::string& key) {
  return Status::InvalidArgument("deployment config: missing field \"" +
                                 key + "\"");
}

Status WrongType(const std::string& key, const char* want) {
  return Status::InvalidArgument("deployment config: field \"" + key +
                                 "\" is not " + want);
}

/// Optional-field readers: absent keys keep the struct default, present
/// keys must have the right type. Exact integers use the parser's
/// uint_value so u64 seeds and session keys survive above 2^53.
Status ReadUint(const JsonValue& obj, const std::string& key,
                uint64_t* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind != JsonValue::Kind::kNumber || !v->is_integer ||
      v->is_negative) {
    return WrongType(key, "a non-negative integer");
  }
  *out = v->uint_value;
  return Status::OK();
}

Status ReadSize(const JsonValue& obj, const std::string& key, size_t* out) {
  uint64_t value = *out;
  SQM_RETURN_NOT_OK(ReadUint(obj, key, &value));
  *out = static_cast<size_t>(value);
  return Status::OK();
}

Status ReadDouble(const JsonValue& obj, const std::string& key,
                  double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind != JsonValue::Kind::kNumber) return WrongType(key, "a number");
  *out = v->number;
  return Status::OK();
}

Status ReadBool(const JsonValue& obj, const std::string& key, bool* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind != JsonValue::Kind::kBool) return WrongType(key, "a boolean");
  *out = v->bool_value;
  return Status::OK();
}

Status ReadString(const JsonValue& obj, const std::string& key,
                  std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind != JsonValue::Kind::kString) return WrongType(key, "a string");
  *out = v->string_value;
  return Status::OK();
}

}  // namespace

Result<DeploymentConfig> ParseDeploymentConfig(const std::string& json) {
  SQM_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(json));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "deployment config: document is not a JSON object");
  }
  DeploymentConfig config;

  const JsonValue* parties = root.Find("parties");
  if (parties == nullptr) return MissingField("parties");
  if (parties->kind != JsonValue::Kind::kArray) {
    return WrongType("parties", "an array");
  }
  for (const JsonValue& entry : parties->items) {
    if (entry.kind != JsonValue::Kind::kObject) {
      return WrongType("parties[]", "an object with host/port");
    }
    TcpPeer peer;
    SQM_RETURN_NOT_OK(ReadString(entry, "host", &peer.host));
    uint64_t port = peer.port;
    SQM_RETURN_NOT_OK(ReadUint(entry, "port", &port));
    if (port > 65535) {
      return Status::InvalidArgument(
          "deployment config: port " + std::to_string(port) +
          " out of range");
    }
    peer.port = static_cast<uint16_t>(port);
    config.parties.push_back(peer);
  }
  if (config.parties.size() < 2) {
    return Status::InvalidArgument(
        "deployment config: need at least 2 parties, got " +
        std::to_string(config.parties.size()));
  }

  SQM_RETURN_NOT_OK(ReadUint(root, "run_id", &config.run_id));
  SQM_RETURN_NOT_OK(ReadUint(root, "session_key", &config.session_key));
  SQM_RETURN_NOT_OK(ReadSize(root, "rows", &config.rows));
  SQM_RETURN_NOT_OK(ReadSize(root, "cols", &config.cols));
  SQM_RETURN_NOT_OK(ReadUint(root, "data_seed", &config.data_seed));
  SQM_RETURN_NOT_OK(ReadString(root, "polynomial", &config.polynomial));
  SQM_RETURN_NOT_OK(ReadDouble(root, "gamma", &config.gamma));
  SQM_RETURN_NOT_OK(ReadDouble(root, "mu", &config.mu));
  SQM_RETURN_NOT_OK(ReadUint(root, "seed", &config.seed));
  SQM_RETURN_NOT_OK(
      ReadString(root, "dropout_policy", &config.dropout_policy));
  SQM_RETURN_NOT_OK(ReadDouble(root, "dp_delta", &config.dp_delta));
  SQM_RETURN_NOT_OK(ReadSize(root, "bgw_threshold", &config.bgw_threshold));
  SQM_RETURN_NOT_OK(
      ReadDouble(root, "record_norm_bound", &config.record_norm_bound));
  SQM_RETURN_NOT_OK(ReadDouble(root, "max_f_l2", &config.max_f_l2));
  SQM_RETURN_NOT_OK(
      ReadSize(root, "mpc_max_attempts", &config.mpc_max_attempts));
  SQM_RETURN_NOT_OK(ReadBool(root, "quantize_coefficients",
                             &config.quantize_coefficients));
  SQM_RETURN_NOT_OK(ReadDouble(root, "receive_timeout_seconds",
                               &config.receive_timeout_seconds));
  SQM_RETURN_NOT_OK(ReadDouble(root, "connect_timeout_seconds",
                               &config.connect_timeout_seconds));
  SQM_RETURN_NOT_OK(ReadSize(root, "max_reconnect_attempts",
                             &config.max_reconnect_attempts));
  SQM_RETURN_NOT_OK(ReadDouble(root, "reconnect_backoff_seconds",
                               &config.reconnect_backoff_seconds));
  SQM_RETURN_NOT_OK(ReadBool(root, "obs_enabled", &config.obs_enabled));
  SQM_RETURN_NOT_OK(ReadSize(root, "max_restarts", &config.max_restarts));
  SQM_RETURN_NOT_OK(ReadDouble(root, "restart_backoff_seconds",
                               &config.restart_backoff_seconds));
  SQM_RETURN_NOT_OK(ReadDouble(root, "recovery_deadline_seconds",
                               &config.recovery_deadline_seconds));
  SQM_RETURN_NOT_OK(ReadUint(root, "chaos_seed", &config.chaos_seed));
  SQM_RETURN_NOT_OK(ReadString(root, "chaos_phase", &config.chaos_phase));
  SQM_RETURN_NOT_OK(
      ReadSize(root, "chaos_max_events", &config.chaos_max_events));
  SQM_RETURN_NOT_OK(ReadDouble(root, "chaos_reset_probability",
                               &config.chaos_reset_probability));
  SQM_RETURN_NOT_OK(ReadDouble(root, "chaos_partial_write_probability",
                               &config.chaos_partial_write_probability));
  SQM_RETURN_NOT_OK(ReadDouble(root, "chaos_stall_probability",
                               &config.chaos_stall_probability));
  SQM_RETURN_NOT_OK(
      ReadDouble(root, "chaos_stall_seconds", &config.chaos_stall_seconds));
  SQM_RETURN_NOT_OK(
      ReadSize(root, "chaos_partition_peer", &config.chaos_partition_peer));
  SQM_RETURN_NOT_OK(ReadSize(root, "chaos_partition_sends",
                             &config.chaos_partition_sends));

  if (config.rows == 0) {
    return Status::InvalidArgument("deployment config: rows must be >= 1");
  }
  if (config.polynomial.empty()) {
    return Status::InvalidArgument(
        "deployment config: polynomial must be non-empty");
  }
  if (config.receive_timeout_seconds <= 0.0 ||
      config.connect_timeout_seconds <= 0.0 ||
      config.reconnect_backoff_seconds < 0.0) {
    return Status::InvalidArgument(
        "deployment config: timeouts must be positive "
        "(backoff may be zero)");
  }
  if (config.max_restarts > 0 && config.recovery_deadline_seconds <= 0.0) {
    return Status::InvalidArgument(
        "deployment config: max_restarts > 0 requires "
        "recovery_deadline_seconds > 0 (the resume-barrier budget every "
        "party waits for a restarted peer; without it survivors would "
        "degrade before the respawn can rejoin)");
  }
  if (config.restart_backoff_seconds < 0.0 ||
      config.recovery_deadline_seconds < 0.0) {
    return Status::InvalidArgument(
        "deployment config: restart_backoff_seconds and "
        "recovery_deadline_seconds must be non-negative");
  }
  const double probs[] = {config.chaos_reset_probability,
                          config.chaos_partial_write_probability,
                          config.chaos_stall_probability};
  for (double p : probs) {
    if (p < 0.0 || p > 1.0) {
      return Status::InvalidArgument(
          "deployment config: chaos probabilities must be in [0, 1]");
    }
  }
  if (config.chaos_stall_seconds < 0.0) {
    return Status::InvalidArgument(
        "deployment config: chaos_stall_seconds must be non-negative");
  }
  return config;
}

std::string DeploymentConfigToJson(const DeploymentConfig& config) {
  JsonWriter w;
  w.BeginObject();
  w.Field("run_id", config.run_id);
  w.Field("session_key", config.session_key);
  w.BeginArray("parties");
  for (const TcpPeer& peer : config.parties) {
    w.BeginObject();
    w.Field("host", peer.host);
    w.Field("port", static_cast<uint64_t>(peer.port));
    w.EndObject();
  }
  w.EndArray();
  w.Field("rows", static_cast<uint64_t>(config.rows));
  w.Field("cols", static_cast<uint64_t>(config.cols));
  w.Field("data_seed", config.data_seed);
  w.Field("polynomial", config.polynomial);
  w.Field("gamma", config.gamma);
  w.Field("mu", config.mu);
  w.Field("seed", config.seed);
  w.Field("dropout_policy", config.dropout_policy);
  w.Field("dp_delta", config.dp_delta);
  w.Field("bgw_threshold", static_cast<uint64_t>(config.bgw_threshold));
  w.Field("record_norm_bound", config.record_norm_bound);
  w.Field("max_f_l2", config.max_f_l2);
  w.Field("mpc_max_attempts",
          static_cast<uint64_t>(config.mpc_max_attempts));
  w.Field("quantize_coefficients", config.quantize_coefficients);
  w.Field("receive_timeout_seconds", config.receive_timeout_seconds);
  w.Field("connect_timeout_seconds", config.connect_timeout_seconds);
  w.Field("max_reconnect_attempts",
          static_cast<uint64_t>(config.max_reconnect_attempts));
  w.Field("reconnect_backoff_seconds", config.reconnect_backoff_seconds);
  w.Field("obs_enabled", config.obs_enabled);
  w.Field("max_restarts", static_cast<uint64_t>(config.max_restarts));
  w.Field("restart_backoff_seconds", config.restart_backoff_seconds);
  w.Field("recovery_deadline_seconds", config.recovery_deadline_seconds);
  w.Field("chaos_seed", config.chaos_seed);
  w.Field("chaos_phase", config.chaos_phase);
  w.Field("chaos_max_events",
          static_cast<uint64_t>(config.chaos_max_events));
  w.Field("chaos_reset_probability", config.chaos_reset_probability);
  w.Field("chaos_partial_write_probability",
          config.chaos_partial_write_probability);
  w.Field("chaos_stall_probability", config.chaos_stall_probability);
  w.Field("chaos_stall_seconds", config.chaos_stall_seconds);
  w.Field("chaos_partition_peer",
          static_cast<uint64_t>(config.chaos_partition_peer));
  w.Field("chaos_partition_sends",
          static_cast<uint64_t>(config.chaos_partition_sends));
  w.EndObject();
  return w.str();
}

TcpTransportOptions TcpOptionsFromDeployment(const DeploymentConfig& config,
                                             size_t local_party,
                                             int listen_fd,
                                             uint32_t incarnation) {
  TcpTransportOptions options;
  options.local_party = local_party;
  options.peers = config.parties;
  options.session_key = config.session_key;
  options.run_id = config.run_id;
  options.receive_timeout_seconds = config.receive_timeout_seconds;
  options.connect_timeout_seconds = config.connect_timeout_seconds;
  options.max_reconnect_attempts = config.max_reconnect_attempts;
  options.reconnect_backoff_seconds = config.reconnect_backoff_seconds;
  options.listen_fd = listen_fd;
  options.incarnation = incarnation;
  options.jitter_seed = config.seed ^ config.run_id;
  if (config.max_restarts > 0) {
    // Per restart the supervisor sleeps its backoff, then the respawned
    // process must load its checkpoint, rebind the listener, and complete
    // the mesh handshakes; 2 s of slack per restart covers that startup
    // on a loaded CI host. Every peer extends its reconnect window by
    // this allowance so a legitimate rejoin never races the window.
    options.rejoin_window_seconds =
        static_cast<double>(config.max_restarts) *
        (config.restart_backoff_seconds + 2.0);
  }
  options.chaos.seed = config.chaos_seed;
  options.chaos.phase = config.chaos_phase;
  options.chaos.max_events = config.chaos_max_events;
  options.chaos.reset_probability = config.chaos_reset_probability;
  options.chaos.partial_write_probability =
      config.chaos_partial_write_probability;
  options.chaos.stall_probability = config.chaos_stall_probability;
  options.chaos.stall_seconds = config.chaos_stall_seconds;
  options.chaos.partition_peer = config.chaos_partition_peer;
  options.chaos.partition_sends = config.chaos_partition_sends;
  return options;
}

}  // namespace net
}  // namespace sqm
