#include "testing/schedule_fuzz.h"

#include "mpc/bgw.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/lockstep.h"
#include "net/runner.h"
#include "net/threaded.h"
#include "sampling/rng.h"

namespace sqm {
namespace testing {
namespace {

/// Deterministic storm-message content: receiver recomputes this and any
/// corruption or cross-wiring of (round, from, to, index) is caught.
uint64_t StormElement(uint64_t seed, uint64_t round, size_t from, size_t to,
                      size_t index) {
  uint64_t z = seed;
  z ^= round * 0x9E3779B97F4A7C15ULL;
  z ^= static_cast<uint64_t>(from) * 0xBF58476D1CE4E5B9ULL;
  z ^= static_cast<uint64_t>(to) * 0x94D049BB133111EBULL;
  z ^= static_cast<uint64_t>(index) + 1;
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z % Field::kModulus;
}

constexpr size_t kStormPayloadSize = 5;

}  // namespace

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
  Rng seed_stream(options_.seed);
  for (size_t i = 0; i < options_.iterations; ++i) {
    const uint64_t iteration_seed = seed_stream.NextUint64();
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
  // Half the iterations run without a LivenessTracker (invariant 1 in the
  // header says why). Drawn last, so it shifts none of the draws above.
  const bool tracked = derive.NextUint64() % 2 == 0;

  // The probe: input sharing, a batched Mul, an inner product, one open.
  // Driver mode in both runs, so the global send order — and therefore the
  // transcript — is a function of the crash schedule alone.
  const Circuit probe = ProductProbeCircuit(options_.vector_size);
  const std::vector<std::vector<int64_t>> probe_inputs =
      ProductProbeInputs(n, x0, x1);
  auto run_probe = [&](Transport* net, TranscriptRecorder* recorder,
                       std::vector<int64_t>* outputs) -> Status {
    net->SetInterceptor(recorder);
    BgwEngine engine(ShamirScheme(n, options_.threshold), net,
                     iteration_seed ^ 0xb9d7);
    LivenessTracker tracker(n);
    if (tracked) engine.set_liveness(&tracker);
    Result<std::vector<int64_t>> released =
        engine.Evaluate(probe, probe_inputs);
    net->SetInterceptor(nullptr);
    SQM_ASSIGN_OR_RETURN(*outputs, std::move(released));
    return Status::OK();
  };
  const std::string where = "seed " + std::to_string(iteration_seed) + ": ";

  TranscriptRecorder reference_recorder(n);
  std::vector<int64_t> reference_outputs;
  LockstepTransport lockstep(n, 0.0, Field::kWireBytes);
  lockstep.ScheduleCrashes(last_crashes_);
  const Status reference_status =
      run_probe(&lockstep, &reference_recorder, &reference_outputs);
  last_reference_ = reference_recorder.transcript();
  last_outputs_ = reference_outputs;

  TranscriptRecorder threaded_recorder(n);
  std::vector<int64_t> threaded_outputs;
  ThreadedTransportOptions threaded_options;
  threaded_options.receive_timeout_seconds = 0.02;
  threaded_options.crashes = last_crashes_;
  ThreadedTransport threaded(n, threaded_options);
  const Status threaded_status =
      run_probe(&threaded, &threaded_recorder, &threaded_outputs);
  last_threaded_ = threaded_recorder.transcript();

  accumulating_.crashes_scheduled += last_crashes_.size();
  if (threaded_status.code() != reference_status.code()) {
    return Status::IntegrityViolation(
        where + "threaded run ended " + threaded_status.ToString() +
        " but the lockstep reference ended " + reference_status.ToString());
  }
  if (reference_status.ok()) {
    // Expected plaintext values: the probe's inputs are small enough that
    // the products never wrap the field.
    std::vector<int64_t> expected(options_.vector_size, 0);
    int64_t expected_ip = 0;
    for (size_t t = 0; t < options_.vector_size; ++t) {
      expected[t] = x0[t] * x1[t];
      expected_ip += expected[t];
    }
    expected.push_back(expected_ip);
    if (reference_outputs != expected) {
      return Status::IntegrityViolation(
          where + "lockstep probe released wrong values");
    }
    if (threaded_outputs != reference_outputs) {
      return Status::IntegrityViolation(
          where + "threaded release diverged from the lockstep reference");
    }
  } else {
    ++accumulating_.probes_refused;
  }
  const TranscriptDiff diff =
      CompareTranscripts(last_reference_, last_threaded_);
  if (!diff.identical) {
    return Status::IntegrityViolation(where + "transcripts diverged: " +
                                      diff.description);
  }

  if (options_.storm_rounds > 0) {
    SQM_RETURN_NOT_OK(RunStorm(iteration_seed));
  }
  return Status::OK();
}

Status ScheduleFuzzer::RunStorm(uint64_t iteration_seed) {
  const size_t n = options_.num_parties;
  ThreadedTransportOptions storm_options;
  storm_options.receive_timeout_seconds = 0.05;
  ThreadedTransport storm(n, storm_options);

  // Every party on its own thread: all-to-all rounds of deterministic
  // content, verified element-by-element on receipt. The round barrier
  // guarantees at most one in-flight message per channel, so thread
  // interleavings may shuffle timing but never content.
  PartyRunner runner(n);
  return runner.Run([&](size_t party) -> Status {
    for (uint64_t round = 0; round < options_.storm_rounds; ++round) {
      for (size_t to = 0; to < n; ++to) {
        if (to == party) continue;
        Transport::Payload payload(kStormPayloadSize);
        for (size_t t = 0; t < kStormPayloadSize; ++t) {
          payload[t] = StormElement(iteration_seed, round, party, to, t);
        }
        storm.Send(party, to, std::move(payload));
      }
      for (size_t from = 0; from < n; ++from) {
        if (from == party) continue;
        SQM_ASSIGN_OR_RETURN(const Transport::Payload received,
                             storm.Receive(from, party));
        if (received.size() != kStormPayloadSize) {
          return Status::IntegrityViolation(
              "storm message from " + std::to_string(from) + " to " +
              std::to_string(party) + " has wrong size");
        }
        for (size_t t = 0; t < kStormPayloadSize; ++t) {
          if (received[t] !=
              StormElement(iteration_seed, round, from, party, t)) {
            return Status::IntegrityViolation(
                "storm message from " + std::to_string(from) + " to " +
                std::to_string(party) + " round " + std::to_string(round) +
                " corrupted at element " + std::to_string(t));
          }
        }
      }
      storm.ArriveRound(party);
    }
    return Status::OK();
  });
}

}  // namespace testing
}  // namespace sqm
