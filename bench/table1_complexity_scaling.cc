// Table I reproduction: the paper's complexity table is analytic
// (computation / communication / time for PCA and LR under BGW). This
// bench (a) restates the formulas, (b) validates the dominant scaling
// empirically: measured communication for PCA grows ~n^2 m P and for LR
// ~n m P, and measured time follows the same trend, by fitting the growth
// exponent between successive problem sizes, and (c) measures the batched
// Shamir hot path (ShareBatch / ReconstructBatch over precomputed
// Vandermonde / Lagrange tables) against the scalar loop it replaces —
// the constant-factor side of the same complexity story.
//
// With --json=FILE the batch sweep is also written as a JSON record
// (scripts/check.sh archives it as BENCH_complexity_scaling.json).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/timing_common.h"
#include "mpc/shamir.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

double GrowthExponent(double small_value, double large_value,
                      double size_ratio) {
  return std::log(large_value / small_value) / std::log(size_ratio);
}

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct BatchRow {
  size_t d = 0;
  double scalar_share_seconds = 0.0;
  double batch_share_seconds = 0.0;
  double scalar_recon_seconds = 0.0;
  double batch_recon_seconds = 0.0;
};

/// Times d-secret sharing + reconstruction, scalar loop vs the batched
/// entry points, over `reps` repetitions. Both legs consume identical RNG
/// schedules (ShareBatch draws coefficients in scalar order), so the work
/// compared is bit-for-bit the same computation.
BatchRow TimeBatchSweep(size_t d, int reps) {
  const ShamirScheme scheme(5, 2);
  const size_t parties = 5;
  std::vector<Field::Element> secrets(d);
  for (size_t i = 0; i < d; ++i) {
    secrets[i] = Field::Encode(static_cast<int64_t>(i) - 3);
  }

  BatchRow row;
  row.d = d;
  Field::Element sink = 0;

  {
    Rng rng(77);
    std::vector<std::vector<Field::Element>> shares(d);
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      for (size_t i = 0; i < d; ++i) shares[i] = scheme.Share(secrets[i], rng);
      sink ^= shares[d - 1][0];
    }
    row.scalar_share_seconds = SecondsSince(start) / reps;
  }
  {
    Rng rng(77);
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      const auto rows = scheme.ShareBatch(secrets, rng);
      sink ^= rows[0][d - 1];
    }
    row.batch_share_seconds = SecondsSince(start) / reps;
  }

  // Reconstruction operates on the party-major share matrix the protocol
  // actually holds; the scalar leg pays the per-secret column gather that
  // ReconstructBatch's table-driven sweep avoids.
  Rng rng(78);
  const std::vector<std::vector<Field::Element>> rows =
      scheme.ShareBatch(secrets, rng);
  {
    std::vector<Field::Element> column(parties);
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      for (size_t i = 0; i < d; ++i) {
        for (size_t j = 0; j < parties; ++j) column[j] = rows[j][i];
        sink ^= scheme.Reconstruct(column);
      }
    }
    row.scalar_recon_seconds = SecondsSince(start) / reps;
  }
  {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      sink ^= scheme.ReconstructBatch(rows)[d - 1];
    }
    row.batch_recon_seconds = SecondsSince(start) / reps;
  }
  if (sink == 0xdeadbeef) std::printf("(unlikely sink)\n");
  return row;
}

void WriteJson(const std::string& path, bool paper_scale,
               const std::vector<BatchRow>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\"bench\":\"complexity_scaling\",\"scale\":\"%s\","
               "\"scheme\":{\"parties\":5,\"threshold\":2},"
               "\"batch_rows\":[",
               paper_scale ? "paper" : "small");
  for (size_t i = 0; i < rows.size(); ++i) {
    const BatchRow& row = rows[i];
    std::fprintf(
        out,
        "%s{\"d\":%zu,\"scalar_share_seconds\":%.9f,"
        "\"batch_share_seconds\":%.9f,\"share_speedup\":%.3f,"
        "\"scalar_reconstruct_seconds\":%.9f,"
        "\"batch_reconstruct_seconds\":%.9f,\"reconstruct_speedup\":%.3f}",
        i > 0 ? "," : "", row.d, row.scalar_share_seconds,
        row.batch_share_seconds,
        row.scalar_share_seconds / row.batch_share_seconds,
        row.scalar_recon_seconds, row.batch_recon_seconds,
        row.scalar_recon_seconds / row.batch_recon_seconds);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

}  // namespace
}  // namespace sqm

int main(int argc, char** argv) {
  using namespace sqm;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);

  bench::PrintHeader("Table I: complexity of SQM under BGW",
                     "analytic formulas + empirical scaling check");

  std::printf(
      "Paper formulas (m records, n attributes, P clients, scale gamma):\n"
      "  PCA: computation O(mP + n^2 m log m / P + n^2) per client,\n"
      "       communication O(n^2 m P log gamma), time O(n^2 m log m)\n"
      "  LR : computation O(m(n-1)P + m(n-1) log m / P) per client,\n"
      "       communication O(m(n-1) P log m log gamma), time "
      "O(m(n-1) log m)\n\n");

  const size_t m = config.paper_scale ? 500 : 60;
  const size_t n_small = config.paper_scale ? 50 : 8;
  const size_t n_large = 2 * n_small;
  const double ratio = 2.0;

  const bench::TimingRow pca_small =
      bench::TimePcaRelease(m, n_small, 4, 18.0, 0.0);
  const bench::TimingRow pca_large =
      bench::TimePcaRelease(m, n_large, 4, 18.0, 0.0);
  const bench::TimingRow lr_small =
      bench::TimeLrRelease(m, n_small, 4, 18.0, 0.0);
  const bench::TimingRow lr_large =
      bench::TimeLrRelease(m, n_large, 4, 18.0, 0.0);

  std::printf("Empirical growth exponents when doubling n (m=%zu, P=4):\n",
              m);
  std::printf("%-28s %-12s %-12s\n", "quantity", "measured", "expected");
  bench::PrintRule();
  std::printf("%-28s %-12.2f %-12s\n", "PCA communication vs n",
              GrowthExponent(static_cast<double>(pca_small.elements),
                             static_cast<double>(pca_large.elements),
                             ratio),
              "~2 (n^2)");
  std::printf("%-28s %-12.2f %-12s\n", "PCA wall time vs n",
              GrowthExponent(pca_small.overall_seconds,
                             pca_large.overall_seconds, ratio),
              "~2 (n^2)");
  std::printf("%-28s %-12.2f %-12s\n", "LR communication vs n",
              GrowthExponent(static_cast<double>(lr_small.elements),
                             static_cast<double>(lr_large.elements),
                             ratio),
              "~1-2 (n..n^2*)");
  std::printf("%-28s %-12.2f %-12s\n", "LR wall time vs n",
              GrowthExponent(lr_small.overall_seconds,
                             lr_large.overall_seconds, ratio),
              "~1-2");
  std::printf(
      "\n* The generic circuit path evaluates the expanded degree-2 "
      "polynomial (n^2 monomials); the paper's O(m n) LR figure assumes "
      "the structured inner-product evaluation, which the structured "
      "gradient circuit (mpc/ops.h NoisyStructuredGradient) provides.\n");

  std::printf(
      "\nBatched Shamir hot path (scheme (5,2); per-batch seconds, mean of "
      "reps):\n");
  std::printf("%-6s | %-14s %-14s %-8s | %-14s %-14s %-8s\n", "d",
              "scalar share", "batch share", "speedup", "scalar recon",
              "batch recon", "speedup");
  bench::PrintRule();
  const int batch_reps =
      config.reps > 0 ? config.reps : (config.paper_scale ? 2000 : 400);
  std::vector<BatchRow> batch_rows;
  for (const size_t d : {4u, 16u, 64u, 256u}) {
    const BatchRow row = TimeBatchSweep(d, batch_reps);
    batch_rows.push_back(row);
    std::printf("%-6zu | %-14.9f %-14.9f %-8.2f | %-14.9f %-14.9f %-8.2f\n",
                row.d, row.scalar_share_seconds, row.batch_share_seconds,
                row.scalar_share_seconds / row.batch_share_seconds,
                row.scalar_recon_seconds, row.batch_recon_seconds,
                row.scalar_recon_seconds / row.batch_recon_seconds);
  }
  std::printf(
      "\nReading: both columns perform the identical field computation "
      "(same RNG schedule, bit-identical outputs — the differential suite "
      "pins this); the batched columns amortize the Vandermonde / Lagrange "
      "table lookups and run branchless lazy-reduction kernels over "
      "contiguous spans. The win compounds with d; by d >= 16 the batched "
      "path should dominate on any machine.\n");

  if (!config.json_path.empty()) {
    WriteJson(config.json_path, config.paper_scale, batch_rows);
    std::printf("JSON summary written to %s\n", config.json_path.c_str());
  }
  return 0;
}
