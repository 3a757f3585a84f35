#ifndef SQM_NET_TCP_PARTY_CONFIG_H_
#define SQM_NET_TCP_PARTY_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "net/tcp/tcp_transport.h"

namespace sqm {
namespace net {

/// One networked SQM deployment, as shared by every process in the run:
/// the coordinator writes this file once and hands the SAME file to all n
/// sqm-party daemons plus itself. Everything in here is public knowledge
/// (the session key is a transport-authentication secret among the
/// parties, not data) — per-party private state is derived locally from
/// the party index.
///
/// This struct deliberately holds only scalars and strings (the query
/// polynomial is kept in poly/parser.h text form) so it can live in the
/// net layer: parsing it into Matrix/PolynomialVector objects happens in
/// core/party_sqm.h, which owns the math dependencies.
struct DeploymentConfig {
  /// Transport session identity: frames from another run are rejected.
  uint64_t run_id = 1;
  /// Shared SipHash MAC key authenticating every frame on every channel.
  uint64_t session_key = 0;
  /// Party roster; index == party id. parties[j].port == 0 is allowed for
  /// coordinator-managed runs where listeners are pre-bound and ports are
  /// rewritten before the config reaches the daemons.
  std::vector<TcpPeer> parties;

  /// Synthetic database: every process regenerates the full rows x cols
  /// matrix from data_seed and keeps only its own columns, so no data
  /// travels in the config. cols == 0 means one column per party.
  size_t rows = 16;
  size_t cols = 0;
  uint64_t data_seed = 7;

  /// Query polynomial in poly/parser.h text form, e.g. "x0*x0; x0*x1".
  std::string polynomial;

  /// SqmOptions mirror (names match core/sqm.h field for field).
  double gamma = 256.0;
  double mu = 0.0;
  uint64_t seed = 42;
  std::string dropout_policy = "abort";
  double dp_delta = 1e-5;
  size_t bgw_threshold = 0;
  double record_norm_bound = 1.0;
  double max_f_l2 = 1.0;
  size_t mpc_max_attempts = 2;
  bool quantize_coefficients = true;
  bool check_capacity = true;

  /// Transport tuning (TcpTransportOptions mirror).
  double receive_timeout_seconds = 2.0;
  double connect_timeout_seconds = 10.0;
  size_t max_reconnect_attempts = 5;
  double reconnect_backoff_seconds = 0.05;

  /// Runtime observability kill switch for the whole fleet: false makes
  /// every process call obs::SetEnabled(false) before any protocol work,
  /// so no spans, metrics or telemetry streams exist and the wire carries
  /// no trace context. Released values are bit-identical either way
  /// (obs_distributed_test proves it).
  bool obs_enabled = true;
  /// Cadence of the party -> coordinator telemetry snapshots (and of the
  /// durable trace rewrites that keep pre-crash spans on disk).
  double telemetry_snapshot_interval_seconds = 0.25;

  /// Supervised recovery (docs/DEPLOYMENT.md "Recovery & supervision").
  /// max_restarts > 0 makes the coordinator respawn a dead party up to
  /// that many times, pointing it at its durable checkpoint; it REQUIRES
  /// recovery_deadline_seconds > 0, the per-incident budget every party
  /// spends at the resume barrier waiting for the restartee to rejoin
  /// before declaring it dead and falling back to the degrade path.
  size_t max_restarts = 0;
  /// Supervisor sleep before each respawn (crash storms damp out).
  double restart_backoff_seconds = 0.25;
  double recovery_deadline_seconds = 0.0;

  /// Socket-level chaos injection (ChaosOptions mirror; testing only,
  /// chaos_seed == 0 disables). chaos_partition_peer == SIZE_MAX means no
  /// induced partition.
  uint64_t chaos_seed = 0;
  std::string chaos_phase;
  size_t chaos_max_events = 8;
  double chaos_reset_probability = 0.0;
  double chaos_partial_write_probability = 0.0;
  double chaos_stall_probability = 0.0;
  double chaos_stall_seconds = 0.05;
  size_t chaos_partition_peer = static_cast<size_t>(-1);
  size_t chaos_partition_sends = 0;
};

/// Parses a deployment config from its JSON text. Structural validation
/// only (>= 2 parties, rows >= 1, non-empty polynomial, positive
/// timeouts); SQM-semantic validation happens when the options reach
/// SqmEvaluator/RunPartySqm.
Result<DeploymentConfig> ParseDeploymentConfig(const std::string& json);

/// Serializes; ParseDeploymentConfig(DeploymentConfigToJson(c)) == c.
std::string DeploymentConfigToJson(const DeploymentConfig& config);

/// The TcpTransportOptions for party `local_party` of this deployment.
/// `listen_fd` >= 0 adopts a pre-bound listening socket (coordinator
/// mode) instead of binding parties[local_party]. `incarnation` is the
/// process's restart generation (0 = first spawn; the supervisor passes
/// restarts-used on each respawn).
TcpTransportOptions TcpOptionsFromDeployment(const DeploymentConfig& config,
                                             size_t local_party,
                                             int listen_fd = -1,
                                             uint32_t incarnation = 0);

}  // namespace net

using net::DeploymentConfig;
using net::DeploymentConfigToJson;
using net::ParseDeploymentConfig;
using net::TcpOptionsFromDeployment;

}  // namespace sqm

#endif  // SQM_NET_TCP_PARTY_CONFIG_H_
