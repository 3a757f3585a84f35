#include "core/sqm.h"

#include <chrono>
#include <memory>

#include "core/sqm_plan.h"
#include "mpc/bgw.h"
#include "mpc/field.h"
#include "net/lockstep.h"
#include "obs/trace.h"

namespace sqm {
namespace {

/// Plaintext executor: the same quantized integers and noise shares,
/// evaluated in the clear (MPC is exact, so the release is identical).
Result<SqmReport> EvaluatePlaintext(const SqmPlan& plan,
                                    const SqmPlan::Inputs& inputs) {
  const auto compute_start = std::chrono::steady_clock::now();
  std::vector<int64_t> raw;
  for (const std::vector<QuantizedMonomial>& dim : plan.polynomial().dims) {
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
    raw.push_back(static_cast<int64_t>(acc));
  }
  return plan.ReleaseInClear(inputs, compute_start, std::move(raw));
}

/// Driver-mode BGW executor: one engine hosts every party in this process
/// over one lockstep transport.
Result<SqmReport> EvaluateBgw(const SqmPlan& plan,
                              const SqmPlan::Inputs& inputs) {
  const SqmOptions& options = plan.options();
  auto network = std::make_unique<LockstepTransport>(
      plan.num_clients(), options.network_latency_seconds);
  network->ScheduleCrashes(options.crashes);
  if (options.interceptor != nullptr) {
    network->SetInterceptor(options.interceptor);
  }
  BgwEngine engine(plan.scheme(), network.get(), plan.protocol_seed());
  engine.set_verify_sharings(options.verify_sharings);
  return plan.Run(inputs, &engine, *network);
}

}  // namespace

const char* DropoutPolicyToString(DropoutPolicy policy) {
  switch (policy) {
    case DropoutPolicy::kAbort:
      return "abort";
    case DropoutPolicy::kDegrade:
      return "degrade";
  }
  return "unknown";
}

Result<DropoutPolicy> DropoutPolicyFromString(const std::string& name) {
  if (name == "abort") return DropoutPolicy::kAbort;
  if (name == "degrade") return DropoutPolicy::kDegrade;
  return Status::InvalidArgument("unknown dropout policy \"" + name +
                                 "\" (expected abort or degrade)");
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
