#ifndef SQM_TESTING_SCHEDULE_FUZZ_H_
#define SQM_TESTING_SCHEDULE_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "mpc/circuit.h"
#include "net/transport.h"
#include "testing/transcript.h"

namespace sqm {
namespace testing {

/// Configuration of one schedule-exploration fuzz sweep. Everything an
/// iteration does — its crash schedule, probe inputs, sharing randomness —
/// is derived from a single uint64 iteration seed, so any failure
/// reproduces bit-exactly from the seed the report names.
struct ScheduleFuzzOptions {
  /// Iteration i of the sweep runs iteration seed `seed + i`.
  uint64_t seed = 0xf022ed5eedULL;
  size_t iterations = 8;
  size_t num_parties = 5;
  size_t threshold = 2;
  /// Elements in each party's probe input vector.
  size_t vector_size = 6;
  /// Stop at the first failing iteration (its transcript stays readable
  /// through last_reference_transcript()); false sweeps every seed and
  /// counts failures.
  bool stop_on_failure = true;
};

/// Outcome of a sweep.
struct ScheduleFuzzReport {
  size_t iterations_run = 0;
  size_t failures = 0;
  uint64_t first_failing_seed = 0;  ///< Valid when failures > 0.
  std::string first_failure;        ///< Invariant that broke, human-readable.
  size_t crashes_scheduled = 0;  ///< Iterations that drew a crash.
  size_t probes_refused = 0;     ///< Iterations whose probe did not release.
};

/// The conformance probe as a circuit: party 0 inputs a and party 1
/// inputs b (k >= 1 values each); the outputs are a_i * b_i for every i,
/// then their sum (the inner product). One multiplication level.
Circuit ProductProbeCircuit(size_t k);

/// The probe's per-party inputs: `a` for party 0, `b` for party 1, none
/// for the others.
std::vector<std::vector<int64_t>> ProductProbeInputs(
    size_t num_parties, const std::vector<int64_t>& a,
    const std::vector<int64_t>& b);

/// Seeded schedule-exploration fuzzer over LockstepTransport under crash
/// schedules.
///
/// Each iteration derives at most one CrashEvent, the probe inputs and
/// whether the probe runs under a LivenessTracker from its seed, then runs
/// the BGW probe (ProductProbeCircuit: input sharing, a batched
/// multiplication, an inner product, opening) in driver mode with that
/// crash schedule, recording its transcript. The invariants:
///
///  1. only a crash that took effect refuses the probe, and it does so
///     with kUnavailable,
///  2. a release matches the plaintext expectation exactly,
///  3. and the transcript carries no message from the crashed party once
///     its crash round has passed, whether or not the probe released.
class ScheduleFuzzer {
 public:
  explicit ScheduleFuzzer(ScheduleFuzzOptions options);

  /// Runs the sweep. An error Status means the harness itself failed; a
  /// broken invariant is reported via `failures` / `first_failure`.
  Result<ScheduleFuzzReport> Run();

  /// Runs a single iteration from its seed — the repro entry point for a
  /// failure the report named. OK iff every invariant held.
  Status RunIteration(uint64_t iteration_seed);

  /// Transcript of the most recent iteration, for inspection.
  const Transcript& last_reference_transcript() const {
    return last_reference_;
  }
  /// Values the most recent iteration's reference run released (empty
  /// when the crash refused it).
  const std::vector<int64_t>& last_reference_outputs() const {
    return last_outputs_;
  }
  /// The crash schedule the most recent iteration drew (empty or one).
  const std::vector<CrashEvent>& last_crashes() const { return last_crashes_; }

  const ScheduleFuzzOptions& options() const { return options_; }

 private:
  ScheduleFuzzOptions options_;
  Transcript last_reference_;
  std::vector<int64_t> last_outputs_;
  std::vector<CrashEvent> last_crashes_;
  ScheduleFuzzReport accumulating_;
};

}  // namespace testing
}  // namespace sqm

#endif  // SQM_TESTING_SCHEDULE_FUZZ_H_
