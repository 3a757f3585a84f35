#ifndef SQM_SAMPLING_RNG_H_
#define SQM_SAMPLING_RNG_H_

#include <cstdint>

#include "core/logging.h"

namespace sqm {

/// Deterministic 64-bit random engine (xoshiro256**), seeded via splitmix64.
///
/// This is the single source of randomness in the library: quantization coin
/// flips, Skellam noise shares, Gaussian baselines, synthetic datasets and
/// Shamir sharing all draw from an `Rng`. Seeding each component explicitly
/// keeps every experiment reproducible, which the benchmark harness relies
/// on when printing paper-versus-measured rows.
///
/// Not cryptographically secure; a production deployment would replace the
/// generator behind this same interface with a CSPRNG (the call sites do not
/// change). The paper's analysis only requires the sampled *distributions*
/// to be exact, which they are.
class Rng {
 public:
  /// Constructs an engine whose entire state is derived from `seed`.
  explicit Rng(uint64_t seed);

  /// Returns the next raw 64-bit output.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Returns an unbiased draw from {0, ..., bound - 1}. `bound` must be > 0.
  /// Inline, so a constant bound's two divisions compile to multiplies.
  uint64_t NextBounded(uint64_t bound) {
    SQM_CHECK(bound > 0);
    // Lemire-style rejection: accept only draws in the largest multiple of
    // `bound` to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
      const uint64_t r = NextUint64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Returns a double uniform in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Derives an independent child engine; children with distinct `stream`
  /// values are statistically independent of each other and of the parent.
  Rng Split(uint64_t stream);

  /// Copies the engine's exact position in its stream into `out` (4 words).
  /// Together with FromState this lets a durable checkpoint record the RNG
  /// cursor, so a restarted party regenerates bit-identical shares and
  /// noise from where it left off.
  void SaveState(uint64_t out[4]) const;

  /// Reconstructs an engine at a position previously captured by
  /// SaveState. The words are engine state, not a seed: they are installed
  /// verbatim (modulo the all-zero fixed-point guard).
  static Rng FromState(const uint64_t state[4]);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace sqm

#endif  // SQM_SAMPLING_RNG_H_
