// fuzz_smoke: seeded adversarial smoke run, wired into ctest and intended
// to be re-run under -DSQM_SANITIZE=thread. Two sweeps:
//
//   1. schedule fuzzing — N seeded iterations of the BGW probe over
//      LockstepTransport with a derived crash schedule, each release
//      checked against plaintext and each transcript against the crash;
//   2. adversary conformance — every tamper kind against the checked BGW
//      probe, asserting detect-or-release-unchanged.
//
// Usage: fuzz_smoke [--iterations N] [--seed S]
// N >= 1; S is decimal or 0x-prefixed hex. Iteration i of the sweep runs
// iteration seed S + i. On failure it prints the first failing iteration
// seed; reproduce with
//   fuzz_smoke --iterations 1 --seed <S>
// or ScheduleFuzzer::RunIteration(<S>) under a debugger. Malformed
// arguments print usage and exit 2.

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "mpc/bgw.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/lockstep.h"
#include "testing/schedule_fuzz.h"
#include "testing/tamper.h"

namespace {

using sqm::BgwEngine;
using sqm::Field;
using sqm::LockstepTransport;
using sqm::ShamirScheme;
using sqm::Status;
using sqm::testing::ByzantineInterceptor;
using sqm::testing::ScheduleFuzzOptions;
using sqm::testing::ScheduleFuzzer;
using sqm::testing::TamperPolicy;

/// One checked BGW probe under the given interceptor; reports whether the
/// run failed (detected) and, if it released, whether the release matched.
bool DetectOrUnchanged(TamperPolicy policy, std::string* what) {
  constexpr size_t kParties = 5;
  constexpr size_t kThreshold = 2;
  const std::vector<int64_t> x0 = {3, -4, 5};
  const std::vector<int64_t> x1 = {-7, 2, 9};
  const std::vector<int64_t> expected = {-21, -8, 45, 16};

  ByzantineInterceptor byzantine({policy});
  LockstepTransport network(kParties, 0.0, Field::kWireBytes);
  network.SetInterceptor(&byzantine);
  BgwEngine engine(ShamirScheme(kParties, kThreshold), &network, 5);
  engine.set_verify_sharings(true);
  const auto result = engine.Evaluate(
      sqm::testing::ProductProbeCircuit(x0.size()),
      sqm::testing::ProductProbeInputs(kParties, x0, x1));
  network.SetInterceptor(nullptr);
  if (!result.ok()) return true;  // Detected: fine.
  if (result.ValueOrDie() == expected) return true;  // Unchanged: fine.
  *what = std::string(sqm::testing::TamperKindToString(policy.kind)) +
          " on phase \"" + policy.target.phase +
          "\" changed the release without an error";
  return false;
}

/// Parses all of `text` as an unsigned 64-bit integer (decimal, or hex
/// with a 0x prefix); false on anything else, a sign included.
bool ParseUint64(const char* text, uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fuzz_smoke [--iterations N] [--seed S]\n"
               "  N >= 1; S is decimal or 0x-prefixed hex\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ScheduleFuzzOptions options;
  options.iterations = 8;
  options.stop_on_failure = false;
  for (int i = 1; i < argc; i += 2) {
    uint64_t value = 0;
    if (i + 1 >= argc || !ParseUint64(argv[i + 1], &value)) return Usage();
    if (std::strcmp(argv[i], "--iterations") == 0 && value >= 1) {
      options.iterations = static_cast<size_t>(value);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = value;
    } else {
      return Usage();
    }
  }

  std::printf("fuzz_smoke: %zu schedule iterations from seed 0x%llx\n",
              options.iterations,
              static_cast<unsigned long long>(options.seed));
  ScheduleFuzzer fuzzer(options);
  const auto report = fuzzer.Run();
  if (!report.ok()) {
    std::printf("FAIL: fuzz harness error: %s\n",
                report.status().ToString().c_str());
    return 1;
  }
  if (report.ValueOrDie().failures > 0) {
    std::printf(
        "FAIL: %zu/%zu iterations broke an invariant.\n"
        "  first failing seed: %llu\n  %s\n"
        "  reproduce: fuzz_smoke --iterations 1 --seed %llu\n",
        report.ValueOrDie().failures, report.ValueOrDie().iterations_run,
        static_cast<unsigned long long>(
            report.ValueOrDie().first_failing_seed),
        report.ValueOrDie().first_failure.c_str(),
        static_cast<unsigned long long>(
            report.ValueOrDie().first_failing_seed));
    return 1;
  }
  std::printf("  ok: %zu iterations (%zu crashes scheduled, %zu refused)\n",
              report.ValueOrDie().iterations_run,
              report.ValueOrDie().crashes_scheduled,
              report.ValueOrDie().probes_refused);

  // Adversary conformance sweep: detect-or-unchanged for every kind/phase.
  const TamperPolicy::Kind kKinds[] = {
      TamperPolicy::Kind::kAdditive,    TamperPolicy::Kind::kBitFlip,
      TamperPolicy::Kind::kWrongDegree, TamperPolicy::Kind::kEquivocate,
      TamperPolicy::Kind::kReplay,      TamperPolicy::Kind::kSwallow,
  };
  const char* kPhases[] = {"input", "mul", "open"};
  size_t checks = 0;
  for (TamperPolicy::Kind kind : kKinds) {
    for (const char* phase : kPhases) {
      TamperPolicy policy;
      policy.kind = kind;
      policy.target.phase = phase;
      policy.magnitude = 7;
      policy.bit = 20;
      policy.degree = 3;
      std::string what;
      if (!DetectOrUnchanged(policy, &what)) {
        std::printf("FAIL: %s\n", what.c_str());
        return 1;
      }
      ++checks;
    }
  }
  std::printf("  ok: %zu tamper policies detect-or-unchanged\n", checks);
  std::printf("fuzz_smoke: PASS\n");
  return 0;
}
