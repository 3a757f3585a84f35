// Schedule-exploration fuzzing: deterministic BGW probes over
// LockstepTransport under seeded crash schedules, with transcript
// record/replay as the repro mechanism. Any failure the fuzzer reports
// must reproduce bit-exactly from its iteration seed alone.

#include "testing/schedule_fuzz.h"

#include <gtest/gtest.h>

#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/lockstep.h"
#include "testing/transcript.h"

namespace sqm {
namespace {

using testing::CompareTranscripts;
using testing::ScheduleFuzzOptions;
using testing::ScheduleFuzzer;
using testing::Transcript;
using testing::TranscriptDiff;

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
  EXPECT_TRUE(
      CompareTranscripts(reference_a, second.last_reference_transcript())
          .identical);
  EXPECT_EQ(outputs_a, second.last_reference_outputs());
}

TEST(ScheduleFuzzTest, DifferentSeedsExerciseDifferentExecutions) {
  ScheduleFuzzer fuzzer(FastOptions());
  ASSERT_TRUE(fuzzer.RunIteration(1).ok());
  const Transcript first = fuzzer.last_reference_transcript();
  ASSERT_TRUE(fuzzer.RunIteration(2).ok());
  const TranscriptDiff diff =
      CompareTranscripts(first, fuzzer.last_reference_transcript());
  EXPECT_FALSE(diff.identical)
      << "distinct seeds should shuffle inputs and sharing randomness";
}

TEST(ScheduleFuzzTest, RecordedTranscriptReplaysToTheSameRelease) {
  // Bit-exact repro via replay: feed the recorded reference transcript into
  // a fresh LockstepTransport and reconstruct the opened values straight
  // from the open-phase wire messages.
  const ScheduleFuzzOptions options = FastOptions();
  ScheduleFuzzer fuzzer(options);
  // The replay needs a full open: take the first iteration from 0xfeed on
  // that drew no crash.
  for (uint64_t seed = 0xfeedULL;; ++seed) {
    ASSERT_TRUE(fuzzer.RunIteration(seed).ok());
    if (fuzzer.last_crashes().empty()) break;
  }
  const Transcript& transcript = fuzzer.last_reference_transcript();
  const std::vector<int64_t>& released = fuzzer.last_reference_outputs();
  ASSERT_FALSE(released.empty());

  LockstepTransport replay(options.num_parties, 0.0, Field::kWireBytes);
  ASSERT_TRUE(testing::ReplayIntoLockstep(transcript, &replay).ok());
  replay.EndRound();

  // Collect the open-phase broadcasts addressed to party 0. The probe runs
  // one open (the product vector followed by the inner product), which
  // sends one message per ordered pair. Reconstruction needs threshold+1 =
  // 3 points; parties 1..3 plus their shares addressed to party 0 are all
  // on the wire.
  const ShamirScheme scheme(options.num_parties, options.threshold);
  std::vector<std::vector<uint64_t>> open_payloads;
  for (const auto& entry : transcript.entries) {
    if (entry.phase.rfind("open", 0) == 0 && entry.to == 0) {
      open_payloads.push_back(entry.payload);
    }
  }
  // One open, with num_parties-1 messages into party 0.
  ASSERT_EQ(open_payloads.size(), options.num_parties - 1);

  std::vector<int64_t> reconstructed;
  const size_t length = open_payloads[0].size();
  for (size_t t = 0; t < length; ++t) {
    // Message order within the open is dealer-major: parties 1,2,3,4 each
    // broadcast their full share vector to party 0.
    std::vector<std::pair<size_t, Field::Element>> points;
    for (size_t j = 1; j <= options.threshold + 1; ++j) {
      points.emplace_back(j, open_payloads[j - 1][t]);
    }
    const auto value = scheme.ReconstructFromSubset(points);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    reconstructed.push_back(Field::Decode(value.ValueOrDie()));
  }
  EXPECT_EQ(reconstructed, released);
}

TEST(ScheduleFuzzTest, TranscriptsSurviveJsonRoundTrip) {
  ScheduleFuzzer fuzzer(FastOptions());
  ASSERT_TRUE(fuzzer.RunIteration(0xabcULL).ok());
  const Transcript& original = fuzzer.last_reference_transcript();
  const std::string json = testing::TranscriptToJson(original);
  const auto parsed = testing::TranscriptFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TranscriptDiff diff =
      CompareTranscripts(original, parsed.ValueOrDie());
  EXPECT_TRUE(diff.identical) << diff.description;
}

}  // namespace
}  // namespace sqm
