// Google-benchmark microbenchmarks for the substrates: field arithmetic,
// Shamir sharing, samplers, quantization, BGW multiplication throughput,
// the DP calibrators and the eigensolvers. These bound the constants behind Table I's
// asymptotic complexities.

#include <benchmark/benchmark.h>

#include "core/quantize.h"
#include "dp/gaussian.h"
#include "dp/skellam.h"
#include "math/eigen.h"
#include "math/linalg.h"
#include "mpc/field.h"
#include "mpc/bgw.h"
#include "net/lockstep.h"
#include "sampling/gaussian_sampler.h"
#include "sampling/poisson.h"
#include "sampling/rng.h"
#include "sampling/skellam_sampler.h"

namespace sqm {
namespace {

void BM_FieldMul(benchmark::State& state) {
  Rng rng(1);
  const Field::Element a = rng.NextBounded(Field::kModulus);
  Field::Element b = rng.NextBounded(Field::kModulus);
  for (auto _ : state) {
    b = Field::Mul(a, b);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldInv(benchmark::State& state) {
  Rng rng(2);
  Field::Element a = 1 + rng.NextBounded(Field::kModulus - 1);
  for (auto _ : state) {
    a = Field::Inv(a | 1);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldInv);

void BM_ShamirShare(benchmark::State& state) {
  const size_t parties = state.range(0);
  ShamirScheme scheme(parties, (parties - 1) / 2);
  Rng rng(3);
  for (auto _ : state) {
    auto shares = scheme.Share(12345, rng);
    benchmark::DoNotOptimize(shares);
  }
}
BENCHMARK(BM_ShamirShare)->Arg(4)->Arg(10)->Arg(20);

void BM_ShamirReconstruct(benchmark::State& state) {
  const size_t parties = state.range(0);
  ShamirScheme scheme(parties, (parties - 1) / 2);
  Rng rng(4);
  const auto shares = scheme.Share(12345, rng);
  for (auto _ : state) {
    auto secret = scheme.Reconstruct(shares);
    benchmark::DoNotOptimize(secret);
  }
}
BENCHMARK(BM_ShamirReconstruct)->Arg(4)->Arg(10)->Arg(20);

void BM_PoissonSmallMu(benchmark::State& state) {
  PoissonSampler sampler(2.0);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_PoissonSmallMu);

void BM_PoissonLargeMu(benchmark::State& state) {
  PoissonSampler sampler(1e6);
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_PoissonLargeMu);

void BM_SkellamSample(benchmark::State& state) {
  SkellamSampler sampler(static_cast<double>(state.range(0)));
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_SkellamSample)->Arg(100)->Arg(1000000);

void BM_GaussianSample(benchmark::State& state) {
  GaussianSampler sampler(1.0);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_GaussianSample);

void BM_StochasticRound(benchmark::State& state) {
  Rng rng(9);
  double v = 0.123456;
  for (auto _ : state) {
    benchmark::DoNotOptimize(StochasticRound(v, 8192.0, rng));
    v += 1e-9;
  }
}
BENCHMARK(BM_StochasticRound);

// out = sum_r w_r * row_r over k = 54,400 elements: the shape of one
// party's Shamir dealing (t+1 rows) and GRR recombination (2t+1 rows) in
// the Sec. V-A covariance level.
void BM_LinearCombination(benchmark::State& state) {
  const size_t num_rows = state.range(0);
  const size_t k = 54400;
  Rng rng(14);
  std::vector<std::vector<Field::Element>> rows(
      num_rows, std::vector<Field::Element>(k));
  std::vector<const Field::Element*> pointers;
  std::vector<Field::Element> weights;
  for (auto& row : rows) {
    for (auto& v : row) v = rng.NextBounded(Field::kModulus);
    pointers.push_back(row.data());
    weights.push_back(rng.NextBounded(Field::kModulus));
  }
  std::vector<Field::Element> out(k);
  for (auto _ : state) {
    Field::LinearCombination(pointers.data(), weights.data(), num_rows,
                             out.data(), k);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_LinearCombination)->Arg(3)->Arg(5);

// Args: parties (threshold (parties-1)/2), batch size. {5, 54400} is the
// Sec. V-A covariance level that pca_lockstep multiplies per release.
void BM_BgwMulBatch(benchmark::State& state) {
  const size_t parties = state.range(0);
  const size_t batch = state.range(1);
  LockstepTransport network(parties, 0.0);
  BgwEngine engine(ShamirScheme(parties, (parties - 1) / 2), &network, 10);
  // One Mul level of `batch` products of party 0's and party 1's inputs.
  Circuit circuit;
  std::vector<Circuit::WireId> a(batch);
  for (auto& wire : a) wire = circuit.AddInput(0);
  for (size_t i = 0; i < batch; ++i) {
    const Circuit::WireId product = circuit.AddMul(a[i], circuit.AddInput(1));
    if (i == 0) circuit.MarkOutput(product);
  }
  std::vector<std::vector<int64_t>> inputs(parties);
  inputs[0].assign(batch, 7);
  inputs[1].assign(batch, 7);
  // The checkpoint the engine hands its sink right after the input phase.
  BgwCheckpoint after_inputs;
  engine.set_checkpoint_sink([&](const BgwCheckpoint& checkpoint) {
    if (!after_inputs.valid) after_inputs = checkpoint;
  });
  (void)engine.EvaluateToShares(circuit, inputs).ValueOrDie();
  engine.set_checkpoint_sink(nullptr);
  for (auto _ : state) {
    // Resuming a copy of the post-input checkpoint runs just the Mul
    // level; the table copy and the level's gather/scatter are part of
    // the measured time.
    BgwCheckpoint checkpoint = after_inputs;
    auto product = engine.EvaluateToShares(circuit, inputs, &checkpoint);
    benchmark::DoNotOptimize(product);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BgwMulBatch)
    ->Args({4, 64})
    ->Args({4, 1024})
    ->Args({4, 16384})
    ->Args({5, 54400});

// The DP calibrators: a bisection over mu (or the noise multiplier) whose
// every step scans the alpha grid; the subsampled ones sum Lemma 11's log
// terms at each order.
void BM_CalibrateSkellamMuSingleRelease(benchmark::State& state) {
  for (auto _ : state) {
    auto mu = CalibrateSkellamMuSingleRelease(1.0, 1e-5, 10.0, 3.0);
    benchmark::DoNotOptimize(mu);
  }
}
BENCHMARK(BM_CalibrateSkellamMuSingleRelease)->Unit(benchmark::kMicrosecond);

void BM_CalibrateSkellamMuSubsampled(benchmark::State& state) {
  for (auto _ : state) {
    auto mu = CalibrateSkellamMuSubsampled(1.0, 1e-5, 10.0, 3.0, 0.01, 10);
    benchmark::DoNotOptimize(mu);
  }
}
BENCHMARK(BM_CalibrateSkellamMuSubsampled)->Unit(benchmark::kMicrosecond);

void BM_CalibrateDpSgdNoise(benchmark::State& state) {
  for (auto _ : state) {
    auto z = CalibrateDpSgdNoise(1.0, 1e-5, 0.01, 50);
    benchmark::DoNotOptimize(z);
  }
}
BENCHMARK(BM_CalibrateDpSgdNoise)->Unit(benchmark::kMicrosecond);

void BM_Gram(benchmark::State& state) {
  const size_t n = state.range(0);
  Matrix x(256, n);
  Rng rng(11);
  for (auto& v : x.data()) v = rng.NextDouble();
  for (auto _ : state) {
    auto gram = Gram(x);
    benchmark::DoNotOptimize(gram);
  }
}
BENCHMARK(BM_Gram)->Arg(16)->Arg(64)->Arg(128);

void BM_JacobiEigen(benchmark::State& state) {
  const size_t n = state.range(0);
  Matrix a(n, n);
  Rng rng(12);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      a(i, j) = a(j, i) = rng.NextDouble() - 0.5;
    }
  }
  for (auto _ : state) {
    auto eig = JacobiEigenSymmetric(a);
    benchmark::DoNotOptimize(eig);
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(8)->Arg(32);

void BM_TopKEigenvectors(benchmark::State& state) {
  const size_t n = state.range(0);
  Matrix a(n, n);
  Rng rng(13);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      a(i, j) = a(j, i) = rng.NextDouble() - 0.5;
    }
  }
  for (auto _ : state) {
    auto v = TopKEigenvectors(a, 5);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_TopKEigenvectors)->Arg(32)->Arg(128);

}  // namespace
}  // namespace sqm

BENCHMARK_MAIN();
