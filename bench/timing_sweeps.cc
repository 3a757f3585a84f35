// Tables II, IV and V reproduction: overall time of SQM (gamma = 18, BGW)
// for PCA and LR next to the isolated cost of DP noise injection, swept
// over one parameter per table:
//   - Table II, data dimension n (P = 4, m = 1000 in the paper): overall
//     time grows superlinearly in n (n^2 m for PCA, n m for LR) while the
//     DP-injection time stays near-constant, so the DP overhead -> 0.
//   - Table IV, record count m (P = 4, n = 500): overall time grows
//     linearly in m while the DP-injection time is independent of m (the
//     noise dimension depends only on n).
//   - Table V, number of clients P (m = n = 500): both times grow with P
//     (BGW traffic is quadratic in P; every client contributes a noise
//     share), but DP stays a small fraction of the total.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/timing_common.h"

namespace {

namespace bench = sqm::bench;

/// One release shape: records m, dimension n, clients P.
struct Shape {
  size_t m = 0;
  size_t n = 0;
  size_t clients = 0;
};

/// One paper table: `base` with the `axis` member set to each of `values`.
struct Sweep {
  std::string title;
  std::string note;
  const char* column;
  Shape base;
  size_t Shape::*axis;
  std::vector<size_t> values;
  const char* reading;
};

void RunSweep(const Sweep& sweep, double latency) {
  constexpr double kGamma = 18.0;
  bench::PrintHeader(sweep.title, sweep.note);
  for (const bool pca : {true, false}) {
    std::printf(pca ? "\nTask: principal component analysis (PCA)\n"
                    : "\nTask: logistic regression (LR)\n");
    bench::PrintTimingHeader(sweep.column);
    for (const size_t value : sweep.values) {
      Shape shape = sweep.base;
      shape.*sweep.axis = value;
      bench::PrintTimingRow(
          value, pca ? bench::TimePcaRelease(shape.m, shape.n, shape.clients,
                                             kGamma, latency)
                     : bench::TimeLrRelease(shape.m, shape.n, shape.clients,
                                            kGamma, latency));
    }
  }
  std::printf("\nReading: %s\n", sweep.reading);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  const bool paper = config.paper_scale;
  const double latency = paper ? 0.1 : 0.0;
  const std::string scale = paper ? "scale=paper" : "scale=small";

  const size_t m2 = paper ? 1000 : 60;
  const size_t n4 = paper ? 500 : 16;
  const size_t m5 = paper ? 500 : 60;
  const size_t n5 = paper ? 500 : 20;
  const std::vector<Sweep> sweeps = {
      {"Table II: SQM time vs data dimension n (gamma=18, P=4, m=" +
           std::to_string(m2) + ")",
       paper ? "scale=paper (0.1 s simulated per-round latency)"
             : "scale=small (latency 0; wall-clock compute only)",
       "dimension n", Shape{m2, 0, 4}, &Shape::n,
       paper ? std::vector<size_t>{20, 100, 500}
             : std::vector<size_t>{8, 16, 32, 64},
       "overall time grows ~n^2 (PCA) / ~n (LR) while the DP column stays "
       "near-flat, so the relative DP overhead vanishes with n (cf. paper "
       "Table II)."},
      {"Table IV: SQM time vs record count m (gamma=18, P=4, n=" +
           std::to_string(n4) + ")",
       scale, "records m", Shape{0, n4, 4}, &Shape::m,
       paper ? std::vector<size_t>{20, 100, 500, 2500}
             : std::vector<size_t>{20, 100, 500, 1000},
       "overall time grows ~linearly in m while the DP column is flat "
       "(noise dimension depends only on n) — cf. paper Table IV."},
      {"Table V: SQM time vs number of clients P (gamma=18, m=" +
           std::to_string(m5) + ", n=" + std::to_string(n5) + ")",
       scale, "clients P", Shape{m5, n5, 0}, &Shape::clients, {4, 10, 20},
       "time grows with P (quadratic BGW traffic) and the DP column grows "
       "too (P noise shares), but remains a small fraction of the overall "
       "cost — cf. paper Table V."},
  };
  for (const Sweep& sweep : sweeps) RunSweep(sweep, latency);
  return 0;
}
