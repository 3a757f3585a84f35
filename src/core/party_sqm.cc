#include "core/party_sqm.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/sqm_plan.h"
#include "mpc/bgw.h"
#include "mpc/checkpoint_store.h"
#include "mpc/circuit.h"
#include "net/liveness.h"
#include "obs/trace.h"
#include "poly/parser.h"

namespace sqm {
namespace {

/// Identity of the computation a durable checkpoint belongs to: every
/// config field that determines the circuit structure, the synthetic
/// inputs, or the RNG streams. A checkpoint whose fingerprint mismatches
/// is from a different deployment and must not be resumed.
uint64_t ConfigFingerprint(const DeploymentConfig& config) {
  uint64_t h = 0x53514d434b505431ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  const auto mix_double = [&mix](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  mix(config.run_id);
  mix(config.seed);
  mix(config.data_seed);
  mix(config.rows);
  mix(config.cols);
  mix(config.parties.size());
  mix(config.bgw_threshold);
  mix_double(config.gamma);
  mix_double(config.mu);
  mix(config.quantize_coefficients ? 1 : 0);
  for (const char c : config.polynomial) {
    mix(static_cast<uint8_t>(c));
  }
  return h;
}

/// A party-level instant (sqm.ckpt_saved, sqm.resume_barrier, ...) with
/// two integer arguments, on the calling thread's track.
void TraceInstant(const char* name, const char* key_a, int64_t a,
                  const char* key_b, int64_t b) {
  if (!obs::Enabled()) return;
  obs::TraceEvent event;
  event.name = name;
  event.AddArg(key_a, a);
  event.AddArg(key_b, b);
  obs::Tracer::Global().Instant(event);
}

}  // namespace

size_t DeploymentCols(const DeploymentConfig& config) {
  return config.cols == 0 ? config.parties.size() : config.cols;
}

Matrix GenerateDeploymentMatrix(size_t rows, size_t cols,
                                uint64_t data_seed) {
  Rng rng(data_seed);
  std::vector<double> values(rows * cols);
  for (size_t i = 0; i < rows; ++i) {
    double norm_sq = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      const double v = 2.0 * rng.NextDouble() - 1.0;
      values[i * cols + j] = v;
      norm_sq += v * v;
    }
    // Normalize records into the unit ball so the default
    // record_norm_bound = 1 sensitivity analysis applies.
    const double norm = std::sqrt(norm_sq);
    if (norm > 1.0) {
      for (size_t j = 0; j < cols; ++j) values[i * cols + j] /= norm;
    }
  }
  return Matrix(rows, cols, std::move(values));
}

Result<SqmOptions> SqmOptionsFromDeployment(const DeploymentConfig& config) {
  SqmOptions options;
  options.gamma = config.gamma;
  options.mu = config.mu;
  options.num_clients = config.parties.size();
  options.backend = MpcBackend::kBgw;
  options.bgw_threshold = config.bgw_threshold;
  options.transport = TransportMode::kLockstep;
  options.seed = config.seed;
  SQM_ASSIGN_OR_RETURN(options.dropout_policy,
                       DropoutPolicyFromString(config.dropout_policy));
  options.dp_delta = config.dp_delta;
  options.record_norm_bound = config.record_norm_bound;
  options.mpc_max_attempts = config.mpc_max_attempts;
  options.max_f_l2 = config.max_f_l2;
  options.quantize_coefficients = config.quantize_coefficients;
  options.check_capacity = config.check_capacity;
  return options;
}

Result<SqmReport> RunPartySqm(const DeploymentConfig& config, size_t me,
                              Transport* transport,
                              const PartySqmHooks& hooks) {
  const size_t num_clients = config.parties.size();
  if (me >= num_clients) {
    return Status::InvalidArgument(
        "party index " + std::to_string(me) + " out of range for " +
        std::to_string(num_clients) + " parties");
  }
  if (transport == nullptr || transport->num_parties() != num_clients) {
    return Status::InvalidArgument(
        "transport party count does not match the deployment roster");
  }
  SQM_ASSIGN_OR_RETURN(const SqmOptions options,
                       SqmOptionsFromDeployment(config));
  SQM_ASSIGN_OR_RETURN(const PolynomialVector f,
                       ParsePolynomialVector(config.polynomial));
  const size_t cols = DeploymentCols(config);
  // The same plan, and so the same validation, as SqmEvaluator — before
  // any traffic.
  SQM_ASSIGN_OR_RETURN(const SqmPlan plan,
                       SqmPlan::Create(f, options, config.rows, cols));
  const DropoutPolicy policy = options.dropout_policy;

  const Matrix x = GenerateDeploymentMatrix(config.rows, cols,
                                            config.data_seed);

  obs::Span evaluate_span("sqm.party_evaluate", "sqm");
  evaluate_span.AddArg("party", static_cast<int64_t>(me));
  evaluate_span.AddArg("clients", static_cast<int64_t>(num_clients));
  evaluate_span.AddArg("rows", static_cast<int64_t>(config.rows));

  // ---- Steps 1-2: this party rounds ONLY its own columns and samples
  // ONLY its own Skellam share, from its own streams of the plan's RNG
  // schedule — the values driver mode assigns to this party.
  const SqmPlan::Inputs inputs = plan.PrepareInputs(x, me);

  if (obs::Enabled()) {
    obs::Tracer::Global().SetTrackName(static_cast<int32_t>(me),
                                       "party " + std::to_string(me));
  }
  obs::TrackScope party_track(static_cast<int32_t>(me));
  obs::Span bgw_span("sqm.bgw", "sqm");
  bgw_span.AddArg("parties", static_cast<int64_t>(num_clients));
  bgw_span.AddArg("threshold", static_cast<int64_t>(plan.threshold()));

  // ---- Step 3: the plan's circuit (public structure) with only this
  // party's input VALUES filled in.
  const Circuit circuit = plan.BuildCircuit();
  const std::vector<int64_t> my_inputs = plan.CircuitInputs(inputs, me);
  BgwEngine engine(plan.scheme(), transport, plan.protocol_seed(), me);
  PartyProtocol& party = engine.party(0);
  engine.set_noise_inputs(plan.output_dim());
  if (hooks.mul_level_hook) {
    engine.set_mul_level_hook(hooks.mul_level_hook);
  }
  const size_t quorum = 2 * plan.threshold() + 1;
  LivenessTracker tracker(num_clients);
  if (policy != DropoutPolicy::kAbort) engine.set_liveness(&tracker);

  // Supervised recovery: durable checkpoints at every phase boundary plus
  // resume barriers on failure, so a kill -9'd party can be respawned by
  // the coordinator and rejoin with full quorum (docs/DEPLOYMENT.md
  // "Recovery & supervision"). Needs a non-abort policy: abort runs have
  // no liveness tracker to arbitrate a barrier.
  const bool recovery_enabled = !hooks.checkpoint_dir.empty() &&
                                config.recovery_deadline_seconds > 0.0 &&
                                policy != DropoutPolicy::kAbort;
  const uint64_t fingerprint = ConfigFingerprint(config);
  const CheckpointStore store(hooks.checkpoint_dir);
  BgwCheckpoint checkpoint;
  if (recovery_enabled) {
    engine.set_recovery_mode(true);
    engine.set_checkpoint_sink([&](const BgwCheckpoint& ckpt) {
      DurableCheckpoint snap;
      snap.run_id = config.run_id;
      snap.party = static_cast<uint32_t>(me);
      snap.incarnation = hooks.incarnation;
      snap.fingerprint = fingerprint;
      snap.valid = ckpt.valid;
      snap.next_level = ckpt.next_level;
      snap.mul_rounds_done = ckpt.mul_rounds_done;
      snap.wire_shares = ckpt.wire_shares;
      party.SaveRngState(snap.rng_state);
      const Status saved = store.Save(snap);
      TraceInstant(saved.ok() ? "sqm.ckpt_saved" : "sqm.ckpt_save_failed",
                   "next_level", static_cast<int64_t>(ckpt.next_level),
                   "mul_rounds_done",
                   static_cast<int64_t>(ckpt.mul_rounds_done));
      if (!saved.ok()) {
        // A failed save degrades a future restart to a full redo; this
        // run continues unharmed.
        SQM_LOG(kWarning) << "party " << me
                          << ": durable checkpoint save failed: " << saved;
      }
    });
    if (hooks.incarnation > 0) {
      // Restarted process: restore the pre-crash wire shares and RNG
      // cursor, so redone levels deal bit-identical randomness.
      Result<DurableCheckpoint> loaded = store.Load();
      if (loaded.ok() && loaded.ValueOrDie().run_id == config.run_id &&
          loaded.ValueOrDie().party == me &&
          loaded.ValueOrDie().fingerprint == fingerprint &&
          loaded.ValueOrDie().valid &&
          loaded.ValueOrDie().wire_shares.size() == circuit.gates().size()) {
        DurableCheckpoint& snap = loaded.ValueOrDie();
        checkpoint.valid = true;
        checkpoint.next_level = static_cast<size_t>(snap.next_level);
        checkpoint.mul_rounds_done =
            static_cast<size_t>(snap.mul_rounds_done);
        checkpoint.wire_shares = std::move(snap.wire_shares);
        party.RestoreRngState(snap.rng_state);
      } else {
        SQM_LOG(kWarning)
            << "party " << me << ": no usable durable checkpoint ("
            << (loaded.ok() ? Status::OK() : loaded.status())
            << "); announcing a full redo at the resume barrier";
      }
    }
  }

  SqmPlan::Execution run;
  run.compute_start = std::chrono::steady_clock::now();

  // Meets every peer at the resume barrier and redoes from the minimum
  // announced level: 0 = someone lost its input phase, full redo.
  const auto reconcile = [&]() -> Status {
    const uint64_t my_encoded =
        checkpoint.valid ? static_cast<uint64_t>(checkpoint.next_level) + 1
                         : 0;
    SQM_ASSIGN_OR_RETURN(const uint64_t min_encoded,
                         party.ResumeBarrier(config.recovery_deadline_seconds,
                                             my_encoded));
    if (min_encoded == 0) {
      checkpoint = BgwCheckpoint{};
    } else {
      // min includes our own announcement, so min - 1 <= next_level.
      checkpoint.next_level = static_cast<size_t>(min_encoded - 1);
    }
    TraceInstant("sqm.resume_barrier", "announced",
                 static_cast<int64_t>(my_encoded), "agreed",
                 static_cast<int64_t>(min_encoded));
    return Status::OK();
  };

  // Checkpoint retry loop, mirroring the driver. Under TCP's crash-stop
  // failure model a failed level usually means a permanent quorum
  // shortfall (links die, they do not flake), so without recovery retries
  // are rare — the loop exists for schedule parity and for transports
  // with transient faults. With recovery enabled, a failed level is the
  // NORMAL rendezvous with a restarted peer.
  BgwCheckpoint* checkpoint_ptr =
      policy != DropoutPolicy::kAbort ? &checkpoint : nullptr;
  SharedVector out_shares;
  if (recovery_enabled && hooks.incarnation > 0) {
    // The peers of this killed-and-respawned party are already waiting at
    // their barriers; answer before the first attempt.
    SQM_RETURN_NOT_OK(reconcile());
    run.resumed_from_level = checkpoint.valid ? checkpoint.next_level : 0;
  }

  // The retry loop covers evaluate AND the output opening. The opening is
  // the protocol's last exchange: under recovery its full-quorum failure
  // (a laggard peer still at its resume barrier) must route back through
  // reconcile() like any failed level, or the laggard would be stranded
  // with nobody answering its barrier. Each retry recomputes out_shares
  // from the (possibly rewound) checkpoint, so nothing is double-added.
  while (true) {
    ++run.attempts;
    Status failure = Status::OK();
    Result<SharedVector> shares =
        engine.EvaluateToShares(circuit, {my_inputs}, checkpoint_ptr);
    if (!shares.ok()) {
      failure = shares.status();
    } else {
      out_shares = std::move(shares).ValueOrDie();
      // kTopUp: every party walks the plan's survivor-ordered schedule and
      // samples only its own compensating share. Survivor sets agree across
      // parties under the crash-stop model (a dead TCP link is kUnavailable
      // for every peer). Deterministic streams, so re-running it on a fresh
      // out_shares after a recovery retry adds the same values.
      Result<double> topup_mu = plan.AddTopUp(tracker, &engine, &out_shares);
      if (!topup_mu.ok()) {
        // Without recovery this keeps the pre-recovery contract: a topup
        // or open failure is terminal, never retried.
        if (!recovery_enabled) return topup_mu.status();
        failure = topup_mu.status();
      } else {
        run.topup_mu = topup_mu.ValueOrDie();
        Result<std::vector<int64_t>> opened = engine.OpenOutputs(out_shares);
        if (opened.ok()) {
          run.raw = std::move(opened).ValueOrDie();
          break;
        }
        if (!recovery_enabled) return opened.status();
        failure = opened.status();
      }
    }
    SQM_LOG(kInfo) << "party " << me << " attempt " << run.attempts
                   << " failed: " << failure;
    bool retryable = policy != DropoutPolicy::kAbort &&
                     run.attempts < plan.max_attempts();
    if (retryable && recovery_enabled) {
      // The barrier may revive a restarted party or declare a vanished
      // one positively dead, so the quorum check comes after it.
      SQM_RETURN_NOT_OK(reconcile());
    }
    retryable = retryable && (checkpoint.valid || recovery_enabled) &&
                tracker.num_alive() >= quorum;
    if (!retryable) return failure;
    run.resumed_from_level = checkpoint.valid ? checkpoint.next_level : 0;
  }
  run.noise_deal_seconds = engine.noise_deal_seconds();
  run.transport = transport;
  run.tracker = &tracker;
  SQM_ASSIGN_OR_RETURN(SqmReport report, plan.Finish(inputs, std::move(run)));
  if (report.dropout.num_dropped > 0) {
    TraceInstant("sqm.degrade", "num_dropped",
                 static_cast<int64_t>(report.dropout.num_dropped),
                 "mpc_attempts",
                 static_cast<int64_t>(report.dropout.mpc_attempts));
  }
  return report;
}

}  // namespace sqm
