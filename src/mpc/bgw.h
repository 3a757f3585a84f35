#ifndef SQM_MPC_BGW_H_
#define SQM_MPC_BGW_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "mpc/circuit.h"
#include "mpc/protocol.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/transport.h"

namespace sqm {

/// Multiplication counts for one circuit evaluation.
struct BgwExecutionReport {
  size_t multiplications = 0;
  size_t mul_rounds = 0;  ///< Communication rounds spent on multiplications.
};

/// Gate-level BGW evaluator (the paper's Appendix B, three-phase execution).
///
/// Phase 1: every party Shamir-shares its private inputs. Phase 2: the
/// circuit is evaluated on shares by EvaluateLevels (mpc/circuit.h) — the
/// level loop PartyEngine runs too — over a wire-major table of all n
/// parties' shares; each level's multiplications are gathered into one
/// BgwProtocol::Mul (one communication round) and scattered back. Phase 3:
/// output wires are opened to all parties.
///
/// SQM uses this engine as a black box: it hands the engine the quantized
/// data and the locally sampled Skellam noise as private inputs, and a
/// circuit that sums f-hat over records plus the noise shares (Algorithm 1
/// line 5 / Algorithm 3 line 9).
///
/// Dropout tolerance: attach a LivenessTracker (set_liveness) and use the
/// EvaluateToShares / OpenOutputs split with a BgwCheckpoint. Dead parties
/// are excluded from every round, multiplications recombine over any 2t+1
/// usable dealers, and a failed level can be retried from the checkpoint.
class BgwEngine {
 public:
  /// `network` must outlive the engine and match the scheme's party count.
  /// Any Transport works: the lock-step simulation for deterministic runs,
  /// a ThreadedTransport for concurrent/faulty execution.
  BgwEngine(ShamirScheme scheme, Transport* network, uint64_t seed);

  /// Evaluates `circuit`. `inputs_per_party[j]` supplies party j's private
  /// inputs as centered signed integers, in input-gate declaration order.
  /// Returns the opened outputs (decoded to signed integers) in
  /// MarkOutput order.
  Result<std::vector<int64_t>> Evaluate(
      const Circuit& circuit,
      const std::vector<std::vector<int64_t>>& inputs_per_party);

  /// Phases 1 + 2 only: shares inputs, evaluates every gate level, and
  /// returns the output-wire shares unopened (so callers can, e.g., add
  /// top-up noise shares before release). With a non-null `checkpoint`,
  /// progress is recorded per completed multiplication level and a
  /// previously valid checkpoint resumes instead of restarting — input
  /// sharing is never repeated. An input-phase failure is fatal (a lost
  /// input has no quorum to reconstruct it) and leaves the checkpoint
  /// invalid. A valid checkpoint taken on another circuit fails with
  /// kInvalidArgument.
  Result<SharedVector> EvaluateToShares(
      const Circuit& circuit,
      const std::vector<std::vector<int64_t>>& inputs_per_party,
      BgwCheckpoint* checkpoint = nullptr);

  /// Phase 3: opens output shares to all parties (over the survivors when
  /// a tracker is attached).
  Result<std::vector<int64_t>> OpenOutputs(const SharedVector& out_shares);

  /// Attaches a shared failure detector (forwarded to the protocol layer).
  void set_liveness(LivenessTracker* tracker) {
    protocol_.set_liveness(tracker);
  }

  /// Enables conformance verification (forwarded to the protocol layer):
  /// input sharing, multiplication outputs, and opening all check
  /// degree-consistency and broadcast agreement, turning any single-message
  /// wire tamper into a descriptive kIntegrityViolation. With a liveness
  /// tracker the checks run over the alive parties.
  void set_verify_sharings(bool verify) {
    protocol_.set_verify_sharings(verify);
  }

  BgwProtocol& protocol() { return protocol_; }

  /// Report for the most recent EvaluateToShares call.
  const BgwExecutionReport& last_report() const { return last_report_; }

 private:
  BgwProtocol protocol_;
  BgwExecutionReport last_report_;
};

}  // namespace sqm

#endif  // SQM_MPC_BGW_H_
