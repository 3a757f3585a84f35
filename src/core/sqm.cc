#include "core/sqm.h"

#include <chrono>
#include <memory>

#include "core/sqm_plan.h"
#include "mpc/bgw.h"
#include "mpc/field.h"
#include "net/lockstep.h"
#include "net/liveness.h"
#include "obs/trace.h"

namespace sqm {
namespace {

/// Plaintext executor: the same quantized integers and noise shares,
/// evaluated in the clear (MPC is exact, so the release is identical).
Result<SqmReport> EvaluatePlaintext(const SqmPlan& plan,
                                    const SqmPlan::Inputs& inputs) {
  const QuantizedPolynomial& qf = plan.polynomial();
  SqmPlan::Execution run;
  run.compute_start = std::chrono::steady_clock::now();
  for (const std::vector<QuantizedMonomial>& dim : qf.dims) {
    __int128 acc = 0;
    for (size_t i = 0; i < inputs.db.rows; ++i) {
      SQM_ASSIGN_OR_RETURN(int64_t value,
                           EvaluateQuantizedDim(dim, inputs.db, i));
      acc += value;
    }
    if (acc > Field::kMaxCentered || acc < -Field::kMaxCentered) {
      return Status::OutOfRange(
          "aggregate exceeds field capacity; lower gamma or split the data");
    }
    run.raw.push_back(static_cast<int64_t>(acc));
  }
  // Noise injection: the aggregation of the clients' noise shares — the
  // quantity Tables II/IV/V isolate as the "time for DP".
  SQM_RETURN_NOT_OK(plan.AddNoiseInClear(inputs, &run));
  return plan.Finish(inputs, std::move(run));
}

/// Driver-mode BGW executor: every party runs in this process over one
/// lockstep or threaded transport.
Result<SqmReport> EvaluateBgw(const SqmPlan& plan,
                              const SqmPlan::Inputs& inputs) {
  const SqmOptions& options = plan.options();
  const size_t num_clients = plan.num_clients();

  // Name the party tracks so the exported trace renders one labeled row
  // per party; the driver's own spans go on the track after the parties.
  if (obs::Enabled()) {
    for (size_t j = 0; j < num_clients; ++j) {
      obs::Tracer::Global().SetTrackName(static_cast<int32_t>(j),
                                         "party " + std::to_string(j));
    }
    obs::Tracer::Global().SetTrackName(static_cast<int32_t>(num_clients),
                                       "driver");
  }
  obs::TrackScope driver_track(static_cast<int32_t>(num_clients));
  obs::Span bgw_span("sqm.bgw", "sqm");
  bgw_span.AddArg("parties", static_cast<int64_t>(num_clients));
  bgw_span.AddArg("threshold", static_cast<int64_t>(plan.threshold()));

  const Circuit circuit = plan.BuildCircuit();
  std::vector<std::vector<int64_t>> inputs_per_party(num_clients);
  for (size_t j = 0; j < num_clients; ++j) {
    inputs_per_party[j] = plan.CircuitInputs(inputs, j);
  }

  // The protocol code is transport-agnostic; the options pick the
  // execution model (deterministic lock-step vs concurrent mailboxes with
  // optional fault injection).
  std::unique_ptr<Transport> network;
  if (options.transport == TransportMode::kThreaded) {
    ThreadedTransportOptions threaded = options.threaded;
    threaded.per_round_latency_seconds = options.network_latency_seconds;
    threaded.element_wire_bytes = Field::kWireBytes;
    network = std::make_unique<ThreadedTransport>(num_clients, threaded);
  } else {
    auto lockstep = std::make_unique<LockstepTransport>(
        num_clients, options.network_latency_seconds);
    // Lockstep honors the crash component of the fault options, so the
    // same dropout scenario runs under both transports.
    lockstep->ScheduleCrashes(options.threaded.faults.EffectiveCrashes());
    network = std::move(lockstep);
  }
  if (options.interceptor != nullptr) {
    network->SetInterceptor(options.interceptor);
  }
  BgwEngine engine(plan.scheme(), network.get(), plan.protocol_seed());
  engine.set_noise_inputs(plan.output_dim());
  const DropoutPolicy policy = options.dropout_policy;
  if (options.verify_sharings && policy == DropoutPolicy::kAbort) {
    engine.set_verify_sharings(true);
  }
  const size_t quorum = 2 * plan.threshold() + 1;
  LivenessTracker tracker(num_clients);
  if (policy != DropoutPolicy::kAbort) engine.set_liveness(&tracker);

  SqmPlan::Execution run;
  run.compute_start = std::chrono::steady_clock::now();
  {
    obs::Span compute_span("sqm.mpc_compute", "sqm");
    // BGW phases 1+2 with phase-level checkpointing: a run that loses a
    // multiplication level to flaky links retries from the last completed
    // level instead of restarting quantization or input sharing. A quorum
    // shortfall (alive < 2t+1) is unrecoverable and surfaces immediately.
    BgwCheckpoint checkpoint;
    BgwCheckpoint* checkpoint_ptr =
        policy != DropoutPolicy::kAbort ? &checkpoint : nullptr;
    SharedVector out_shares;
    while (true) {
      ++run.attempts;
      Result<SharedVector> shares =
          engine.EvaluateToShares(circuit, inputs_per_party, checkpoint_ptr);
      if (shares.ok()) {
        out_shares = std::move(shares).ValueOrDie();
        break;
      }
      const bool retryable = policy != DropoutPolicy::kAbort &&
                             checkpoint.valid &&
                             run.attempts < plan.max_attempts() &&
                             tracker.num_alive() >= quorum;
      if (!retryable) return shares.status();
      run.resumed_from_level = checkpoint.next_level;
    }

    // kTopUp: before opening, the survivors deal compensating Skellam
    // noise, restoring the release to the full Sk(mu). It reacts only to
    // deaths known before the release.
    SQM_ASSIGN_OR_RETURN(run.topup_mu,
                         plan.AddTopUp(tracker, &engine, &out_shares));
    SQM_ASSIGN_OR_RETURN(run.raw, engine.OpenOutputs(out_shares));
  }
  run.noise_deal_seconds = engine.noise_deal_seconds();
  run.transport = network.get();
  run.tracker = &tracker;
  return plan.Finish(inputs, std::move(run));
}

}  // namespace

const char* DropoutPolicyToString(DropoutPolicy policy) {
  switch (policy) {
    case DropoutPolicy::kAbort:
      return "abort";
    case DropoutPolicy::kDegrade:
      return "degrade";
    case DropoutPolicy::kTopUp:
      return "topup";
  }
  return "unknown";
}

Result<DropoutPolicy> DropoutPolicyFromString(const std::string& name) {
  if (name == "abort") return DropoutPolicy::kAbort;
  if (name == "degrade") return DropoutPolicy::kDegrade;
  if (name == "topup") return DropoutPolicy::kTopUp;
  return Status::InvalidArgument("unknown dropout policy \"" + name +
                                 "\" (expected abort, degrade, or topup)");
}

SqmEvaluator::SqmEvaluator(SqmOptions options)
    : options_(std::move(options)) {}

Result<SqmReport> SqmEvaluator::Evaluate(const PolynomialVector& f,
                                         const Matrix& x) {
  SQM_ASSIGN_OR_RETURN(const SqmPlan plan,
                       SqmPlan::Create(f, options_, x.rows(), x.cols()));
  obs::Span evaluate_span("sqm.evaluate", "sqm");
  evaluate_span.AddArg("clients", static_cast<int64_t>(plan.num_clients()));
  evaluate_span.AddArg("rows", static_cast<int64_t>(x.rows()));
  evaluate_span.AddArg("output_dim", static_cast<int64_t>(f.output_dim()));

  const SqmPlan::Inputs inputs = plan.PrepareInputs(x);
  if (options_.backend == MpcBackend::kPlaintext) {
    return EvaluatePlaintext(plan, inputs);
  }
  return EvaluateBgw(plan, inputs);
}

}  // namespace sqm
