#include "core/party_sqm.h"

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/sqm_plan.h"
#include "mpc/bgw.h"
#include "mpc/checkpoint_store.h"
#include "mpc/circuit.h"
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
  options.seed = config.seed;
  SQM_ASSIGN_OR_RETURN(options.dropout_policy,
                       DropoutPolicyFromString(config.dropout_policy));
  options.dp_delta = config.dp_delta;
  options.record_norm_bound = config.record_norm_bound;
  options.mpc_max_attempts = config.mpc_max_attempts;
  options.max_f_l2 = config.max_f_l2;
  options.quantize_coefficients = config.quantize_coefficients;
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

  const Matrix x = GenerateDeploymentMatrix(config.rows, cols,
                                            config.data_seed);

  obs::Span evaluate_span("sqm.party_evaluate", "sqm");
  evaluate_span.AddArg("party", static_cast<int64_t>(me));
  evaluate_span.AddArg("clients", static_cast<int64_t>(num_clients));
  evaluate_span.AddArg("rows", static_cast<int64_t>(config.rows));

  // This party rounds ONLY its own columns and samples ONLY its own
  // Skellam share, from its own streams of the plan's RNG schedule — the
  // values driver mode assigns to this party.
  const SqmPlan::Inputs inputs = plan.PrepareInputs(x, me);
  BgwEngine engine(plan.scheme(), transport, plan.protocol_seed(), me);
  PartyProtocol& party = engine.party(0);
  if (hooks.mul_level_hook) {
    engine.set_mul_level_hook(hooks.mul_level_hook);
  }

  // Supervised recovery: durable checkpoints at every phase boundary plus
  // resume barriers on failure, so a kill -9'd party can be respawned by
  // the coordinator and rejoin with full quorum (docs/DEPLOYMENT.md
  // "Recovery & supervision"). Needs a non-abort policy: abort runs have
  // no liveness tracker to arbitrate a barrier.
  if (hooks.checkpoint_dir.empty() ||
      config.recovery_deadline_seconds <= 0.0 ||
      options.dropout_policy == DropoutPolicy::kAbort) {
    return plan.Run(inputs, &engine, *transport);
  }
  const uint64_t fingerprint = ConfigFingerprint(config);
  const CheckpointStore store(hooks.checkpoint_dir);
  engine.set_recovery_mode(true);
  engine.set_checkpoint_sink([&](const BgwCheckpoint& ckpt) {
    DurableCheckpoint snap{config.run_id, static_cast<uint32_t>(me),
                           hooks.incarnation, fingerprint, ckpt};
    party.SaveRngState(snap.rng_state);
    const Status saved = store.Save(snap);
    obs::Tracer::Global().Instant(
        saved.ok() ? "sqm.ckpt_saved" : "sqm.ckpt_save_failed", "sqm",
        {{"next_level", static_cast<int64_t>(ckpt.next_level)},
         {"mul_rounds_done", static_cast<int64_t>(ckpt.mul_rounds_done)}});
    if (!saved.ok()) {
      // A failed save degrades a future restart to a full redo; this run
      // continues unharmed.
      SQM_LOG(kWarning) << "party " << me
                        << ": durable checkpoint save failed: " << saved;
    }
  });

  // Meets every peer at the resume barrier and redoes from the minimum
  // announced level: 0 = someone lost its input phase, full redo.
  SqmPlan::Recovery recovery;
  recovery.barrier = [&](BgwCheckpoint* checkpoint) -> Status {
    const uint64_t my_encoded =
        checkpoint->valid ? static_cast<uint64_t>(checkpoint->next_level) + 1
                          : 0;
    SQM_ASSIGN_OR_RETURN(const uint64_t min_encoded,
                         party.ResumeBarrier(config.recovery_deadline_seconds,
                                             my_encoded));
    if (min_encoded == 0) {
      *checkpoint = BgwCheckpoint{};
    } else {
      // min includes our own announcement, so min - 1 <= next_level.
      checkpoint->next_level = static_cast<size_t>(min_encoded - 1);
    }
    obs::Tracer::Global().Instant(
        "sqm.resume_barrier", "sqm",
        {{"announced", static_cast<int64_t>(my_encoded)},
         {"agreed", static_cast<int64_t>(min_encoded)}});
    return Status::OK();
  };
  if (hooks.incarnation > 0) {
    // A restarted process: its peers are already waiting at their
    // barriers. Restore the pre-crash wire shares and RNG cursor, so
    // redone levels deal bit-identical randomness, then answer them.
    recovery.restore = [&](const Circuit& circuit, BgwCheckpoint* checkpoint) {
      Result<DurableCheckpoint> loaded = store.Load();
      DurableCheckpoint* snap = loaded.ok() ? &loaded.ValueOrDie() : nullptr;
      if (snap != nullptr && snap->run_id == config.run_id &&
          snap->party == me && snap->fingerprint == fingerprint &&
          snap->phase.valid &&
          snap->phase.wire_shares.size() == circuit.gates().size()) {
        *checkpoint = std::move(snap->phase);
        party.RestoreRngState(snap->rng_state);
      } else {
        SQM_LOG(kWarning)
            << "party " << me << ": no usable durable checkpoint ("
            << (loaded.ok() ? Status::OK() : loaded.status())
            << "); announcing a full redo at the resume barrier";
      }
      return recovery.barrier(checkpoint);
    };
  }
  return plan.Run(inputs, &engine, *transport, recovery);
}

}  // namespace sqm
