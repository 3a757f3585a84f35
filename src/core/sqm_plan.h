#ifndef SQM_CORE_SQM_PLAN_H_
#define SQM_CORE_SQM_PLAN_H_

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/quantize.h"
#include "core/sensitivity.h"
#include "core/sqm.h"
#include "core/status.h"
#include "math/matrix.h"
#include "mpc/circuit.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/transport.h"
#include "poly/polynomial.h"
#include "sampling/rng.h"

namespace sqm {

/// One SQM release (Algorithm 3) minus its execution: quantize, sample a
/// local Sk(mu/n) share per client, evaluate on shares, down-scale,
/// account. Built once per release from (f, options, rows, cols) — all
/// public — so SqmEvaluator (plaintext, or BGW with every party in one
/// process) and RunPartySqm (one party of a deployment) derive the same
/// plan and differ only in their engine, transport, retry and recovery
/// loop, and in which clients' private inputs they fill in.
///
/// The plan is the only owner of the RNG split schedule (listed in
/// sqm_plan.cc): every stream of a release is derived here, once.
class SqmPlan {
 public:
  /// Validates the release and derives its public parts: the same checks,
  /// with the same StatusCodes, in every mode and before any traffic.
  static Result<SqmPlan> Create(const PolynomialVector& f,
                                const SqmOptions& options, size_t rows,
                                size_t cols);

  static constexpr size_t kAllClients = static_cast<size_t>(-1);

  /// Client-private inputs (Algorithm 3 lines 4-8). Columns and noise of
  /// clients that were not prepared stay empty.
  struct Inputs {
    QuantizedDatabase db;
    std::vector<std::vector<int64_t>> noise;  ///< [client][output dim].
    double quantize_seconds = 0.0;  ///< Coefficients + data.
    double noise_seconds = 0.0;
  };

  /// Rounds the columns of `x` and samples the noise share of `client`
  /// (kAllClients: every client), each from the client's own streams.
  Inputs PrepareInputs(const Matrix& x, size_t client = kAllClients) const;

  /// Client j's circuit inputs: its columns, row by row within a column,
  /// then its output_dim() noise values.
  std::vector<int64_t> CircuitInputs(const Inputs& inputs, size_t j) const;

  /// The BGW circuit: every client's column inputs, then its noise inputs;
  /// output t sums quantized dimension t over the rows plus the noise.
  Circuit BuildCircuit() const;

  /// kTopUp compensation for the deaths `tracker` knows of: each survivor
  /// deals Sk(dropped / (n * survivors) * mu). No dealers when none is due.
  struct TopUp {
    double per_survivor_mu = 0.0;
    double total_mu = 0.0;
    std::vector<std::pair<size_t, Rng>> dealers;  ///< In dealing order.
  };
  TopUp PlanTopUp(const LivenessTracker& tracker) const;
  std::vector<int64_t> SampleTopUp(const TopUp& topup, size_t k) const;

  /// What one execution measured; Finish turns it into the report.
  struct Execution {
    std::chrono::steady_clock::time_point compute_start;
    std::vector<int64_t> raw;  ///< The opened release, noise included.
    /// Time spent dealing (BGW) or adding (plaintext) the noise inputs.
    double noise_deal_seconds = 0.0;
    const Transport* transport = nullptr;      ///< BGW only.
    const LivenessTracker* tracker = nullptr;  ///< BGW census; not kAbort.
    double topup_mu = 0.0;
    size_t attempts = 0;
    size_t resumed_from_level = 0;
  };

  /// Plaintext execution of Algorithm 3 line 9: adds every client's noise
  /// to the noiseless aggregate run->raw, timing it as the noise dealing.
  Status AddNoiseInClear(const Inputs& inputs, Execution* run) const;

  /// Ends the compute clock, down-scales the release (Algorithm 3 line
  /// 11) and fills the timing; for BGW also the traffic, the dropout
  /// outcome and the privacy ledger. Every input is public, so every
  /// party and the driver report the same realized (epsilon, delta).
  Result<SqmReport> Finish(const Inputs& inputs, Execution run) const;

  const SqmOptions& options() const { return options_; }
  size_t num_clients() const { return num_clients_; }
  size_t output_dim() const { return qf_.dims.size(); }
  size_t threshold() const { return threshold_; }
  ShamirScheme scheme() const { return ShamirScheme(num_clients_, threshold_); }
  /// Seed of the BGW sharing randomness (BgwEngine / PartyEngine).
  uint64_t protocol_seed() const;
  /// Evaluation attempts (first run + checkpoint resumes): 1 under kAbort.
  size_t max_attempts() const;
  const QuantizedPolynomial& polynomial() const { return qf_; }
  /// An unconsumed copy of the coefficient-rounding stream (meaningful
  /// only with quantize_coefficients).
  Rng coefficient_stream() const { return coefficient_rng_; }

 private:
  explicit SqmPlan(const SqmOptions& options) : options_(options) {}

  /// Columns [begin, end) of client j: contiguous blocks, the remainder
  /// going to the first clients.
  std::pair<size_t, size_t> ColumnRange(size_t j) const;

  SqmOptions options_;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t num_clients_ = 0;
  size_t threshold_ = 0;
  QuantizedPolynomial qf_;
  SensitivityBound sensitivity_;
  double coefficient_seconds_ = 0.0;
  Rng coefficient_rng_{0};
  std::vector<Rng> column_rngs_;  ///< [col]
  std::vector<Rng> noise_rngs_;   ///< [client]
};

}  // namespace sqm

#endif  // SQM_CORE_SQM_PLAN_H_
