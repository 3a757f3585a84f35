#ifndef SQM_CORE_SQM_PLAN_H_
#define SQM_CORE_SQM_PLAN_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/quantize.h"
#include "core/sensitivity.h"
#include "core/sqm.h"
#include "core/status.h"
#include "math/matrix.h"
#include "mpc/bgw.h"
#include "mpc/circuit.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/transport.h"
#include "poly/polynomial.h"
#include "sampling/rng.h"

namespace sqm {

/// One SQM release (Algorithm 3): quantize, sample a local Sk(mu/n) share
/// per client, evaluate on shares, down-scale, account. Built once per
/// release from (f, options, rows, cols) — all public — so SqmEvaluator
/// (plaintext, or BGW with every party in one process) and RunPartySqm
/// (one party of a deployment) derive the same plan. Both BGW hostings
/// execute it with Run, the one release loop; they differ only in the
/// engine and transport they hand it, the recovery hooks a deployment
/// adds, and which clients' private inputs they fill in.
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

  /// Hooks of a supervised deployment (RunPartySqm); only an engine
  /// hosting one party sets them.
  struct Recovery {
    /// A restarted process's first step: fills the checkpoint from its
    /// durable snapshot of `circuit` (or leaves it empty) and meets the
    /// peers at the resume barrier before the first attempt.
    std::function<Status(const Circuit& circuit, BgwCheckpoint*)> restore;
    /// After a failed attempt: meets the peers at the resume barrier and
    /// rewinds the checkpoint to the level every party can redo from. Set
    /// means recovery is on, and a failure in evaluate or open goes back
    /// through it.
    std::function<Status(BgwCheckpoint*)> barrier;
  };

  /// Algorithm 3 lines 9-11 for every BGW hosting: the circuit, evaluated
  /// on the hosted clients' inputs through `engine` over `transport`, the
  /// opening and the report. Under kDegrade it attaches a LivenessTracker
  /// and retries a failed evaluation from its checkpoint, up to
  /// options().mpc_max_attempts, while 2t+1 parties are alive; without
  /// recovery an open failure is terminal. The tracker Run attaches to
  /// `engine` lives only as long as the call, so the engine serves this
  /// one release and no other.
  Result<SqmReport> Run(const Inputs& inputs, BgwEngine* engine,
                        const Transport& transport,
                        const Recovery& recovery = {}) const;

  /// The plaintext executors' release: `raw` is the noiseless aggregate
  /// computed in the clear since `compute_start`. Adds every client's
  /// noise share (timed as the noise dealing) and reports.
  Result<SqmReport> ReleaseInClear(
      const Inputs& inputs, std::chrono::steady_clock::time_point compute_start,
      std::vector<int64_t> raw) const;

  const SqmOptions& options() const { return options_; }
  size_t num_clients() const { return num_clients_; }
  size_t output_dim() const { return qf_.dims.size(); }
  ShamirScheme scheme() const { return ShamirScheme(num_clients_, threshold_); }
  /// Seed of the BGW sharing randomness (every BgwEngine hosting).
  uint64_t protocol_seed() const;
  const QuantizedPolynomial& polynomial() const { return qf_; }
  /// An unconsumed copy of the coefficient-rounding stream (meaningful
  /// only with quantize_coefficients).
  Rng coefficient_stream() const { return coefficient_rng_; }

 private:
  explicit SqmPlan(const SqmOptions& options) : options_(options) {}

  /// Columns [begin, end) of client j: contiguous blocks, the remainder
  /// going to the first clients.
  std::pair<size_t, size_t> ColumnRange(size_t j) const;

  /// What one execution measured; Finish turns it into the report.
  struct Execution {
    std::chrono::steady_clock::time_point compute_start;
    std::vector<int64_t> raw;  ///< The opened release, noise included.
    /// Time spent dealing (BGW) or adding (plaintext) the noise inputs.
    double noise_deal_seconds = 0.0;
    const Transport* transport = nullptr;      ///< BGW only.
    const LivenessTracker* tracker = nullptr;  ///< BGW census; not kAbort.
    size_t attempts = 0;
    size_t resumed_from_level = 0;
  };

  /// Ends the compute clock, down-scales the release (Algorithm 3 line
  /// 11) and fills the timing; for BGW also the traffic, the dropout
  /// outcome and the privacy ledger. Every input is public, so every
  /// party and the driver report the same realized (epsilon, delta).
  Result<SqmReport> Finish(const Inputs& inputs, Execution run) const;

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
