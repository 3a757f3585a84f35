// Schedule-exploration fuzzing: deterministic BGW probes over
// LockstepTransport under seeded crash schedules. Any failure the fuzzer
// reports must reproduce bit-exactly from its iteration seed alone.

#include "testing/schedule_fuzz.h"

#include <gtest/gtest.h>

#include "mpc/field.h"
#include "mpc/shamir.h"
#include "testing/transcript.h"

namespace sqm {
namespace {

using testing::ScheduleFuzzOptions;
using testing::ScheduleFuzzer;
using testing::Transcript;

ScheduleFuzzOptions FastOptions() {
  ScheduleFuzzOptions options;
  options.iterations = 4;
  return options;
}

TEST(ScheduleFuzzTest, SweepHoldsAllInvariants) {
  ScheduleFuzzer fuzzer(FastOptions());
  const auto report = fuzzer.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.ValueOrDie().failures, 0u)
      << "first failing seed " << report.ValueOrDie().first_failing_seed
      << ": " << report.ValueOrDie().first_failure;
  EXPECT_EQ(report.ValueOrDie().iterations_run, 4u);
}

TEST(ScheduleFuzzTest, IterationIsDeterministicFromItsSeed) {
  // The repro contract: re-running an iteration from its seed regenerates
  // the identical crash schedule, inputs, transcripts, and release.
  constexpr uint64_t kSeed = 0xdecafbad5eedULL;
  ScheduleFuzzer first(FastOptions());
  ASSERT_TRUE(first.RunIteration(kSeed).ok());
  const Transcript reference_a = first.last_reference_transcript();
  const std::vector<int64_t> outputs_a = first.last_reference_outputs();

  ScheduleFuzzer second(FastOptions());
  ASSERT_TRUE(second.RunIteration(kSeed).ok());
  EXPECT_EQ(reference_a.entries, second.last_reference_transcript().entries);
  EXPECT_EQ(outputs_a, second.last_reference_outputs());
}

TEST(ScheduleFuzzTest, OneIterationSweepRunsItsSeed) {
  // fuzz_smoke prints `--iterations 1 --seed <first failing seed>` as the
  // repro line, so a one-iteration sweep from seed S must run exactly
  // RunIteration(S): same crash draw, same transcript, same release.
  constexpr uint64_t kSeed = 13720838825685603483ULL;
  ScheduleFuzzOptions options = FastOptions();
  options.seed = kSeed;
  options.iterations = 1;
  ScheduleFuzzer sweep(options);
  const auto report = sweep.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.ValueOrDie().iterations_run, 1u);

  ScheduleFuzzer single(FastOptions());
  ASSERT_TRUE(single.RunIteration(kSeed).ok());
  EXPECT_EQ(sweep.last_reference_transcript().entries,
            single.last_reference_transcript().entries);
  EXPECT_EQ(sweep.last_reference_outputs(), single.last_reference_outputs());
  EXPECT_EQ(sweep.last_crashes().size(), single.last_crashes().size());
}

TEST(ScheduleFuzzTest, DifferentSeedsExerciseDifferentExecutions) {
  ScheduleFuzzer fuzzer(FastOptions());
  ASSERT_TRUE(fuzzer.RunIteration(1).ok());
  const Transcript first = fuzzer.last_reference_transcript();
  ASSERT_TRUE(fuzzer.RunIteration(2).ok());
  EXPECT_NE(first.entries, fuzzer.last_reference_transcript().entries)
      << "distinct seeds should shuffle inputs and sharing randomness";
}

TEST(ScheduleFuzzTest, RecordedTranscriptReplaysToTheSameRelease) {
  // The recorded wire messages carry the release: reconstruct the opened
  // values straight from the open-phase messages of the reference
  // transcript.
  const ScheduleFuzzOptions options = FastOptions();
  ScheduleFuzzer fuzzer(options);
  // Reconstruction needs a full open: take the first iteration from 0xfeed
  // on that drew no crash.
  for (uint64_t seed = 0xfeedULL;; ++seed) {
    ASSERT_TRUE(fuzzer.RunIteration(seed).ok());
    if (fuzzer.last_crashes().empty()) break;
  }
  const Transcript& transcript = fuzzer.last_reference_transcript();
  const std::vector<int64_t>& released = fuzzer.last_reference_outputs();
  ASSERT_FALSE(released.empty());

  // The probe runs one open (the product vector followed by the inner
  // product), in which every other party broadcasts its share row to
  // party 0. Reconstruction needs threshold+1 of those rows.
  std::vector<std::vector<Field::Element>> rows(options.num_parties);
  std::vector<size_t> senders;
  for (const auto& entry : transcript.entries) {
    if (entry.phase.rfind("open", 0) == 0 && entry.to == 0) {
      rows[entry.from] = entry.payload;
      senders.push_back(entry.from);
    }
  }
  ASSERT_EQ(senders.size(), options.num_parties - 1);

  const ShamirScheme scheme(options.num_parties, options.threshold);
  const auto opened =
      scheme.ReconstructBatchFromSurvivors(rows, senders, options.threshold);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::vector<int64_t> reconstructed;
  for (Field::Element value : opened.ValueOrDie()) {
    reconstructed.push_back(Field::Decode(value));
  }
  EXPECT_EQ(reconstructed, released);
}

}  // namespace
}  // namespace sqm
