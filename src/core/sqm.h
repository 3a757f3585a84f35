#ifndef SQM_CORE_SQM_H_
#define SQM_CORE_SQM_H_

#include <cstdint>
#include <vector>

#include "core/quantize.h"
#include "core/sensitivity.h"
#include "core/status.h"
#include "math/matrix.h"
#include "net/transport.h"
#include "obs/ledger.h"
#include "poly/polynomial.h"

namespace sqm {

/// Which engine evaluates the quantized polynomial on shares.
enum class MpcBackend {
  /// Real BGW execution over the simulated network (faithful message
  /// pattern; used for the timing tables II/IV/V and the integration tests).
  kBgw,
  /// Functionally identical plaintext evaluation of the same quantized
  /// integers and noise shares, skipping the cryptography — the mode the
  /// paper's utility experiments effectively measure (MPC is exact, so the
  /// utility is unchanged). Orders of magnitude faster for Figure 2/3
  /// sweeps.
  kPlaintext,
};

/// What the BGW backend does when parties drop out mid-protocol.
enum class DropoutPolicy {
  /// Legacy behavior: any transport failure aborts the whole run.
  kAbort,
  /// Finish on the surviving >= 2t+1 quorum. A party that drops has
  /// already dealt its Sk(mu/n) share (an undealt input fails the run), so
  /// the release carries the full Sk(mu) and reports the configured
  /// (epsilon, delta) together with who dropped.
  kDegrade,
};

const char* DropoutPolicyToString(DropoutPolicy policy);

/// GRR degree reduction is the only BGW multiplication. This enum and
/// SqmOptions::mul_backend remain only because the perfbench workloads
/// still set the field; nothing in src/ reads it.
enum class MulBackend { kGrr };

/// Inverse of DropoutPolicyToString; kInvalidArgument on unknown names.
Result<DropoutPolicy> DropoutPolicyFromString(const std::string& name);

/// Parameters of one SQM invocation (Algorithms 1 and 3).
struct SqmOptions {
  /// Scaling parameter gamma (quantization granularity). Larger gamma means
  /// finer quantization: both the approximation error and the relative
  /// sensitivity overhead vanish as gamma grows.
  double gamma = 256.0;

  /// Total Skellam noise parameter mu; the aggregate injected noise is
  /// Sk(mu) per output dimension, split as n independent Sk(mu/n) client
  /// shares. 0 disables noise (used to isolate quantization error).
  double mu = 0.0;

  /// Number of clients. 0 means one client per attribute/column (the
  /// paper's default partitioning).
  size_t num_clients = 0;

  MpcBackend backend = MpcBackend::kPlaintext;

  /// Shamir threshold for BGW; 0 picks the maximum (n-1)/2.
  size_t bgw_threshold = 0;

  /// Simulated per-round message latency (the paper uses 0.1 s).
  double network_latency_seconds = 0.0;

  /// Unused; see TransportMode. Every driver-mode release runs on
  /// LockstepTransport.
  TransportMode transport = TransportMode::kLockstep;

  uint64_t seed = 42;

  /// Dropout handling for the BGW backend. kDegrade attaches a
  /// LivenessTracker, switch the protocol onto its quorum paths, and may
  /// resume a failed multiplication level from the phase checkpoint.
  DropoutPolicy dropout_policy = DropoutPolicy::kAbort;

  /// Unused; see MulBackend.
  MulBackend mul_backend = MulBackend::kGrr;

  /// Delta at which every BGW release's (epsilon, delta) is reported.
  double dp_delta = 1e-5;

  /// Bound c on ||x||_2 per record, used (with max_f_l2) to derive the
  /// release's L1/L2 sensitivities for the privacy accounting.
  double record_norm_bound = 1.0;

  /// Total attempts (first run + checkpoint resumes) for the BGW phase
  /// under kDegrade before the failure is surfaced.
  size_t mpc_max_attempts = 2;

  /// Upper bound on max_{||x||<=c} ||f(x)||_2, used for the field-capacity
  /// guard. Callers that know their task (PCA: c^2, LR: 3/4) should set it.
  double max_f_l2 = 1.0;

  /// Algorithm 3 lines 1-3. When false, coefficients are only rounded to
  /// the nearest integer (no per-degree scaling) and the output scale is
  /// gamma^lambda instead of gamma^{lambda+1}. The paper's PCA
  /// instantiation uses this: every coefficient is exactly 1 and every
  /// monomial has degree 2, so pre-processing would only waste a factor of
  /// gamma ("we choose not to pre-process the coefficients", Section V-A).
  /// Only valid when all monomials share one degree and have integer
  /// coefficients.
  bool quantize_coefficients = true;

  /// Testing hooks (all default off so production runs are byte-identical
  /// to before).
  ///
  /// `interceptor` is installed on the internally constructed transport for
  /// the BGW phase — e.g. a testing::ByzantineInterceptor tampering with
  /// wire messages, or a testing::TranscriptRecorder capturing them. Must
  /// outlive the Evaluate call.
  MessageInterceptor* interceptor = nullptr;

  /// Crash schedule installed on the internally constructed transport for
  /// the BGW phase (LockstepTransport::ScheduleCrashes): the dropout
  /// scenarios the kDegrade policy is tested against.
  std::vector<CrashEvent> crashes;

  /// Enables the BGW conformance checks (see BgwEngine::set_verify_sharings)
  /// so a tampered run fails with kIntegrityViolation instead of releasing
  /// a silently wrong estimate. Requires DropoutPolicy::kAbort: the quorum
  /// paths have their own share-selection semantics, so asking for both is
  /// kInvalidArgument before any traffic.
  bool verify_sharings = false;
};

/// Timing breakdown of one SQM invocation, mirroring the columns of
/// Tables II/IV/V ("overall time" vs "time for noise injection / DP").
struct SqmTiming {
  double quantize_seconds = 0.0;
  double noise_sampling_seconds = 0.0;
  /// Wall time of the (simulated-party) MPC computation.
  double mpc_compute_seconds = 0.0;
  /// Simulated network latency (rounds * per-round latency).
  double simulated_network_seconds = 0.0;
  /// The paper's "time for noise injection" column: noise sampling plus
  /// the time spent dealing the noise inputs inside the real input round
  /// (BGW), or adding them in the clear (plaintext). In party mode only
  /// this party's own dealing is timed.
  double noise_injection_seconds = 0.0;

  double TotalSeconds() const {
    return quantize_seconds + noise_sampling_seconds + mpc_compute_seconds +
           simulated_network_seconds;
  }
};

/// Dropout outcome of one BGW-backed run: who survived, how much noise the
/// release carried and its privacy guarantee. Every completed release
/// carries all n noise shares, so realized equals configured.
struct DropoutReport {
  DropoutPolicy policy = DropoutPolicy::kAbort;
  size_t num_parties = 0;
  std::vector<size_t> survivors;  ///< Party indices that finished the run.
  size_t num_dropped = 0;
  double configured_mu = 0.0;  ///< Sk(mu) the run was provisioned for.
  double realized_mu = 0.0;    ///< Noise the release actually carried.
  /// Single-release epsilon at `delta` for configured_mu / realized_mu
  /// (0 when mu == 0, i.e. no DP configured).
  double configured_epsilon = 0.0;
  double realized_epsilon = 0.0;
  double delta = 0.0;
  double best_alpha = 0.0;  ///< Rényi order minimizing realized_epsilon.
  size_t mpc_attempts = 1;  ///< 1 = no checkpoint resume was needed.
  size_t resumed_from_level = 0;  ///< Mul level the last resume started at.
};

/// Output of one SQM invocation.
struct SqmReport {
  /// The server's estimate tilde-y for sum_x f(x), after down-scaling by
  /// gamma^{lambda+1}.
  std::vector<double> estimate;
  /// Integer outputs y-hat before down-scaling (what the MPC opens).
  std::vector<int64_t> raw;
  SqmTiming timing;
  /// Transport accounting: traffic totals, per-channel and per-phase
  /// breakdowns plus fault/retry counters (empty in plaintext mode).
  TransportStats transport;
  /// Dropout outcome (BGW backend; default-constructed in plaintext mode
  /// and in runs where every party survived under kAbort).
  DropoutReport dropout;
  /// Privacy-spend timeline for this run: every mechanism charge the
  /// internal accountant recorded (BGW backend with mu > 0; empty
  /// otherwise). Serialized as the report's "privacy_ledger" block.
  std::vector<obs::LedgerEntry> ledger;
};

/// The Skellam Quantization Mechanism: evaluates F(X) = sum_x f(x) for a
/// polynomial f over a vertically partitioned database with distributed
/// Skellam noise, via quantization + local noise + MPC (Algorithm 3;
/// Algorithm 1 is the special case of a single monomial dimension).
///
/// Complexities under BGW (the paper's Table I; m records, n attributes,
/// P clients, scale gamma):
///   PCA  — computation O(mP + n^2 m log m / P + n^2) per client,
///          communication O(n^2 m P log gamma), time O(n^2 m log m).
///   LR   — computation O(m(n-1)P + m(n-1) log m / P) per client,
///          communication O(m(n-1) P log m log gamma),
///          time O(m(n-1) log m).
/// The LR row assumes the structured inner-product evaluation
/// (mpc/ops.h NoisyStructuredGradient); the generic circuit path used by
/// this evaluator expands the polynomial and costs one extra factor of n
/// in products (bench/table1_complexity_scaling and
/// bench/ablation_structured_vs_circuit measure both).
class SqmEvaluator {
 public:
  explicit SqmEvaluator(SqmOptions options);

  /// Runs the full mechanism on database `x` (rows = records, columns =
  /// attributes; column j belongs to client j when num_clients is 0).
  Result<SqmReport> Evaluate(const PolynomialVector& f, const Matrix& x);

  const SqmOptions& options() const { return options_; }

 private:
  SqmOptions options_;
};

}  // namespace sqm

#endif  // SQM_CORE_SQM_H_
