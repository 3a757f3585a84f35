// Concurrent noise sampling: in party mode every party samples its Skellam
// share on its own thread at the same time. The PTRS branch (mu >= 10) of
// the Poisson sampler must share no mutable global state across threads —
// glibc's std::lgamma writes the global `signgam`, which ThreadSanitizer
// reports as a race. Labelled `sampler` so scripts/check.sh's TSan leg runs
// it under the race detector; in a plain build it checks that concurrent
// draws equal the single-threaded ones.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sampling/poisson.h"
#include "sampling/rng.h"
#include "sampling/skellam_sampler.h"

namespace sqm {
namespace {

constexpr size_t kThreads = 4;
constexpr size_t kDraws = 20000;

template <typename Sampler>
std::vector<std::vector<int64_t>> DrawOnThreads(const Sampler& sampler,
                                                bool concurrent) {
  std::vector<std::vector<int64_t>> draws(kThreads);
  const auto draw = [&](size_t j) {
    Rng rng(1000 + j);
    draws[j] = sampler.SampleVector(rng, kDraws);
  };
  if (!concurrent) {
    for (size_t j = 0; j < kThreads; ++j) draw(j);
    return draws;
  }
  std::vector<std::thread> threads;
  for (size_t j = 0; j < kThreads; ++j) threads.emplace_back(draw, j);
  for (std::thread& thread : threads) thread.join();
  return draws;
}

TEST(SamplerConcurrencyTest, ConcurrentPtrsPoissonDrawsMatchSequential) {
  const PoissonSampler sampler(37.5);  // PTRS regime.
  EXPECT_EQ(DrawOnThreads(sampler, /*concurrent=*/true),
            DrawOnThreads(sampler, /*concurrent=*/false));
}

TEST(SamplerConcurrencyTest, ConcurrentSkellamSharesMatchSequential) {
  // Sk(mu / n) shares with mu / n >= 10: both Poisson halves run PTRS.
  const SkellamSampler sampler(120.0 / 3.0);
  EXPECT_EQ(DrawOnThreads(sampler, /*concurrent=*/true),
            DrawOnThreads(sampler, /*concurrent=*/false));
}

}  // namespace
}  // namespace sqm
