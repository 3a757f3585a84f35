// Golden-stream regression pins: exact outputs of the deterministic
// building blocks every reproducible run depends on — the xoshiro256**
// generator, stochastic rounding, field arithmetic and encoding, Shamir
// share streams, and the Skellam sampler. A change in any of these values
// silently invalidates every recorded transcript, fuzz seed, and published
// experiment; this test turns that silent break into a loud one.
//
// If a change here is INTENTIONAL (a deliberate RNG or encoding revision),
// regenerate the constants and say so in the commit message — downstream
// transcripts and seeds stop reproducing across that boundary.

#include <gtest/gtest.h>

#include <vector>

#include "core/quantize.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "sampling/rng.h"
#include "sampling/skellam_sampler.h"

namespace sqm {
namespace {

TEST(GoldenStreamTest, RngUint64Stream) {
  Rng rng(12345);
  EXPECT_EQ(rng.NextUint64(), 13720838825685603483ULL);
  EXPECT_EQ(rng.NextUint64(), 2398916695208396998ULL);
  EXPECT_EQ(rng.NextUint64(), 17770384849984869256ULL);
  EXPECT_EQ(rng.NextUint64(), 891717726879801395ULL);
  EXPECT_EQ(rng.NextBounded(1000), 344ULL);
  EXPECT_EQ(rng.NextBounded(1000), 396ULL);
  EXPECT_EQ(rng.NextBounded(1000), 809ULL);
  EXPECT_EQ(rng.NextBounded(1000), 710ULL);
  // Exact doubles: NextDouble is a deterministic bit manipulation of the
  // uint64 stream, not a platform-dependent conversion.
  EXPECT_EQ(rng.NextDouble(), 0.38596574267734496);
  EXPECT_EQ(rng.NextDouble(), 0.91061307555070869);
}

TEST(GoldenStreamTest, RngSplitIsAnIndependentPinnedStream) {
  Rng rng(7);
  Rng split = rng.Split(1);
  EXPECT_EQ(split.NextUint64(), 8026408544651863512ULL);
  // Split consumes exactly one parent draw, independent of the stream id:
  // the parent's stream after Split(1) and after Split(2) must agree.
  Rng parent_a(7);
  parent_a.Split(1);
  Rng parent_b(7);
  parent_b.Split(2);
  EXPECT_EQ(parent_a.NextUint64(), parent_b.NextUint64());
  // Distinct stream ids give unrelated child streams.
  Rng again(7);
  EXPECT_NE(again.Split(2).NextUint64(), 8026408544651863512ULL);
}

TEST(GoldenStreamTest, StochasticRoundStream) {
  Rng rng(42);
  EXPECT_EQ(StochasticRound(0.3, 16.0, rng), 5);
  EXPECT_EQ(StochasticRound(-1.7, 16.0, rng), -27);
  EXPECT_EQ(StochasticRound(2.5, 16.0, rng), 40);
  EXPECT_EQ(StochasticRound(0.0, 16.0, rng), 0);
  EXPECT_EQ(StochasticRound(-0.49, 16.0, rng), -8);
  EXPECT_EQ(StochasticRound(123.456, 16.0, rng), 1975);
}

TEST(GoldenStreamTest, FieldArithmeticAndEncoding) {
  EXPECT_EQ(Field::Mul(1234567890123ULL, 987654321ULL),
            1841202383003765355ULL);
  EXPECT_EQ(Field::Pow(3, 1000000), 163732605560283221ULL);
  EXPECT_EQ(Field::Inv(12345), 2288845705541077819ULL);
  EXPECT_EQ(Field::Mul(12345, Field::Inv(12345)), 1ULL);
  EXPECT_EQ(Field::Encode(-5), 2305843009213693946ULL);  // kModulus - 5.
  EXPECT_EQ(Field::Decode(Field::Encode(-5)), -5);
  EXPECT_EQ(Field::Decode(Field::Encode(int64_t{1} << 40)), int64_t{1} << 40);
}

TEST(GoldenStreamTest, ShamirShareStream) {
  Rng rng(99);
  const ShamirScheme scheme(5, 2);
  const std::vector<Field::Element> shares =
      scheme.Share(Field::Encode(42), rng);
  const std::vector<Field::Element> expected = {
      695513846409949539ULL,  1446368837727678369ULL,
      2252564973953186532ULL, 808259245872780077ULL,
      1725137671913846906ULL,
  };
  EXPECT_EQ(shares, expected);
  EXPECT_EQ(Field::Decode(scheme.Reconstruct(shares)), 42);
}

TEST(GoldenStreamTest, ShamirShareBatchStream) {
  // Same seed and scheme as ShamirShareStream: the FIRST secret's column
  // must reproduce that pin exactly (ShareBatch draws coefficients in the
  // same secret-major order as d scalar Share calls), and the rest of the
  // matrix is pinned so any RNG-schedule drift in the batched path fails
  // loudly here before it can corrupt a release.
  Rng rng(99);
  const ShamirScheme scheme(5, 2);
  const std::vector<std::vector<Field::Element>> rows = scheme.ShareBatch(
      {Field::Encode(42), Field::Encode(-7), Field::Encode(1000000007)}, rng);
  const std::vector<std::vector<Field::Element>> expected = {
      {695513846409949539ULL, 2007791269633559457ULL,
       2153650275751665538ULL},
      {1446368837727678369ULL, 995039701646312208ULL,
       370679382725468610ULL},
      {2252564973953186532ULL, 1573431314465646148ULL,
       1568616349562491076ULL},
      {808259245872780077ULL, 1437123098877867326ULL,
       1135775157835345034ULL},
      {1725137671913846906ULL, 586115054882975742ULL,
       1377998816757724435ULL},
  };
  EXPECT_EQ(rows, expected);
  const std::vector<Field::Element> secrets = scheme.ReconstructBatch(rows);
  ASSERT_EQ(secrets.size(), 3u);
  EXPECT_EQ(Field::Decode(secrets[0]), 42);
  EXPECT_EQ(Field::Decode(secrets[1]), -7);
  EXPECT_EQ(Field::Decode(secrets[2]), 1000000007);
}

TEST(GoldenStreamTest, SkellamSampleStream) {
  Rng rng(3);
  const SkellamSampler sampler(4.0);
  const std::vector<int64_t> samples = sampler.SampleVector(rng, 5);
  EXPECT_EQ(samples, (std::vector<int64_t>{0, -1, 4, 3, 2}));
}

}  // namespace
}  // namespace sqm
