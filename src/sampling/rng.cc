#include "sampling/rng.h"

namespace sqm {
namespace {

// splitmix64: used only to expand seeds into full engine state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // All-zero state is a fixed point of xoshiro; splitmix cannot produce four
  // zero outputs from any seed, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

void Rng::SaveState(uint64_t out[4]) const {
  for (int i = 0; i < 4; ++i) out[i] = state_[i];
}

Rng Rng::FromState(const uint64_t state[4]) {
  Rng rng(0);
  for (int i = 0; i < 4; ++i) rng.state_[i] = state[i];
  if ((rng.state_[0] | rng.state_[1] | rng.state_[2] | rng.state_[3]) == 0) {
    rng.state_[0] = 1;
  }
  return rng;
}

Rng Rng::Split(uint64_t stream) {
  // Mix the parent's next output with the stream id through splitmix to get
  // an unrelated child seed.
  uint64_t mix = NextUint64() ^ (stream * 0xd1342543de82ef95ULL + 1);
  return Rng(SplitMix64(mix));
}

}  // namespace sqm
