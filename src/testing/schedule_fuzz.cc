#include "testing/schedule_fuzz.h"

#include "mpc/bgw.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/lockstep.h"
#include "sampling/rng.h"

namespace sqm {
namespace testing {
Circuit ProductProbeCircuit(size_t k) {
  Circuit circuit;
  std::vector<Circuit::WireId> a(k);
  std::vector<Circuit::WireId> b(k);
  for (size_t i = 0; i < k; ++i) a[i] = circuit.AddInput(0);
  for (size_t i = 0; i < k; ++i) b[i] = circuit.AddInput(1);
  std::vector<Circuit::WireId> products(k);
  for (size_t i = 0; i < k; ++i) {
    products[i] = circuit.AddMul(a[i], b[i]);
    circuit.MarkOutput(products[i]);
  }
  Circuit::WireId inner = products[0];
  for (size_t i = 1; i < k; ++i) inner = circuit.AddAdd(inner, products[i]);
  circuit.MarkOutput(inner);
  return circuit;
}

std::vector<std::vector<int64_t>> ProductProbeInputs(
    size_t num_parties, const std::vector<int64_t>& a,
    const std::vector<int64_t>& b) {
  std::vector<std::vector<int64_t>> inputs(num_parties);
  inputs[0] = a;
  inputs[1] = b;
  return inputs;
}

ScheduleFuzzer::ScheduleFuzzer(ScheduleFuzzOptions options)
    : options_(options) {}

Result<ScheduleFuzzReport> ScheduleFuzzer::Run() {
  accumulating_ = ScheduleFuzzReport{};
  for (size_t i = 0; i < options_.iterations; ++i) {
    // Iteration i runs seed + i, so a sweep from a failing iteration's
    // seed starts with exactly that iteration.
    const uint64_t iteration_seed = options_.seed + i;
    const Status status = RunIteration(iteration_seed);
    ++accumulating_.iterations_run;
    if (!status.ok()) {
      if (accumulating_.failures == 0) {
        accumulating_.first_failing_seed = iteration_seed;
        accumulating_.first_failure = status.ToString();
      }
      ++accumulating_.failures;
      if (options_.stop_on_failure) break;
    }
  }
  return accumulating_;
}

Status ScheduleFuzzer::RunIteration(uint64_t iteration_seed) {
  const size_t n = options_.num_parties;
  SQM_RETURN_NOT_OK(ShamirScheme::Validate(n, options_.threshold));

  // Everything below is a pure function of the iteration seed. At most one
  // crash: a quarter of the iterations run crash-free, the rest crash one
  // party after 0..n+3 completed rounds (the probe has n dealing rounds,
  // the Mul, its census and the open, so n+3 crashes after the release).
  Rng derive(iteration_seed);
  const bool crash = derive.NextUint64() % 4 != 0;
  const CrashEvent event{derive.NextUint64() % n,
                         derive.NextUint64() % (n + 4)};
  last_crashes_.clear();
  if (crash) last_crashes_.push_back(event);
  std::vector<int64_t> x0(options_.vector_size);
  std::vector<int64_t> x1(options_.vector_size);
  for (auto& v : x0) v = static_cast<int64_t>(derive.NextBounded(2001)) - 1000;
  for (auto& v : x1) v = static_cast<int64_t>(derive.NextBounded(2001)) - 1000;
  // Half the iterations run without a LivenessTracker, so a crash reaches
  // the caller both through a receive's own status and through the
  // census. Drawn last, so it shifts none of the draws above.
  const bool tracked = derive.NextUint64() % 2 == 0;

  // The probe: input sharing, a batched Mul, an inner product, one open,
  // in driver mode, so the global send order — and therefore the
  // transcript — is a function of the seed alone.
  TranscriptRecorder recorder;
  LockstepTransport lockstep(n, 0.0, Field::kWireBytes);
  lockstep.ScheduleCrashes(last_crashes_);
  lockstep.SetInterceptor(&recorder);
  BgwEngine engine(ShamirScheme(n, options_.threshold), &lockstep,
                   iteration_seed ^ 0xb9d7);
  LivenessTracker tracker(n);
  if (tracked) engine.set_liveness(&tracker);
  Result<std::vector<int64_t>> released = engine.Evaluate(
      ProductProbeCircuit(options_.vector_size), ProductProbeInputs(n, x0, x1));
  lockstep.SetInterceptor(nullptr);
  last_reference_ = recorder.transcript();
  last_outputs_.clear();
  accumulating_.crashes_scheduled += last_crashes_.size();
  const std::string where = "seed " + std::to_string(iteration_seed) + ": ";

  if (released.ok()) {
    last_outputs_ = std::move(released).ValueOrDie();
    // Expected plaintext values: the probe's inputs are small enough that
    // the products never wrap the field.
    std::vector<int64_t> expected(options_.vector_size, 0);
    int64_t expected_ip = 0;
    for (size_t t = 0; t < options_.vector_size; ++t) {
      expected[t] = x0[t] * x1[t];
      expected_ip += expected[t];
    }
    expected.push_back(expected_ip);
    if (last_outputs_ != expected) {
      return Status::IntegrityViolation(where + "probe released wrong values");
    }
  } else {
    ++accumulating_.probes_refused;
    // Only a crash that took effect may refuse the probe, and it surfaces
    // as the crashed party being unavailable.
    const bool crash_fired =
        crash && event.after_rounds <= lockstep.stats().rounds;
    if (!crash_fired ||
        released.status().code() != StatusCode::kUnavailable) {
      return Status::IntegrityViolation(
          where + "probe refused with " + released.status().ToString() +
          (crash_fired ? "" : " and no crash in effect"));
    }
  }
  for (const TranscriptEntry& entry : last_reference_.entries) {
    if (HasCrashed(last_crashes_, entry.from, entry.round)) {
      return Status::IntegrityViolation(
          where + "crashed party " + std::to_string(entry.from) +
          " sent in round " + std::to_string(entry.round));
    }
  }
  return Status::OK();
}

}  // namespace testing
}  // namespace sqm
