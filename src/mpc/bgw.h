#ifndef SQM_MPC_BGW_H_
#define SQM_MPC_BGW_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/status.h"
#include "mpc/circuit.h"
#include "mpc/party_protocol.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/transport.h"

namespace sqm {

/// Multiplication counts for one circuit evaluation.
struct BgwExecutionReport {
  size_t multiplications = 0;
  size_t mul_rounds = 0;  ///< Communication rounds spent on multiplications.
};

/// Gate-level BGW evaluator (the paper's Appendix B) for the parties this
/// process hosts: one PartyProtocol each, all n in driver mode or `{me}` in
/// a deployment, run on the calling thread. Every round runs each hosted
/// party's send half, ends the round once, then runs each receive half.
///
/// Phase 1: every party Shamir-shares its private inputs (one round per
/// contributing party). Phase 2: EvaluateLevels (mpc/circuit.h) over a
/// wire-major table with one row per hosted party; each level's products
/// are one GRR Mul round (plus a census round with a tracker). Phase 3:
/// the outputs are opened. SQM hands the engine the quantized data and the
/// Skellam noise shares as private inputs (Algorithm 3 line 9).
///
/// Dropout tolerance: attach a LivenessTracker and pass a BgwCheckpoint.
/// Dead parties are excluded from every round, a Mul recombines over the
/// 2t+1 dealers the census agreed, and a failed level can be retried.
class BgwEngine {
 public:
  /// Hosts every party (driver mode). `network` must outlive the engine,
  /// match the scheme's party count and carry every party's traffic (the
  /// lock-step simulation).
  BgwEngine(ShamirScheme scheme, Transport* network, uint64_t seed);

  /// Hosts party `me` only (a deployment: one TcpTransport per party).
  /// `seed` must equal the driver's for bit-identical execution.
  BgwEngine(ShamirScheme scheme, Transport* network, uint64_t seed,
            size_t me);

  BgwEngine(const BgwEngine&) = delete;
  BgwEngine& operator=(const BgwEngine&) = delete;

  size_t num_parties() const { return scheme_.num_parties(); }
  /// True when `party` runs in this engine.
  bool Hosts(size_t party) const { return party - first_ < parties_.size(); }
  /// True in driver mode.
  bool hosts_all() const { return parties_.size() == num_parties(); }

  /// Evaluates `circuit` and opens its outputs. `inputs[i]` supplies the
  /// i-th hosted party's private inputs as centered signed integers, in
  /// input-gate declaration order (in driver mode: party i's). Returns
  /// the opened outputs (decoded to signed integers) in MarkOutput order.
  Result<std::vector<int64_t>> Evaluate(
      const Circuit& circuit, const std::vector<std::vector<int64_t>>& inputs);

  /// Phases 1 + 2 only: shares inputs, evaluates every gate level, and
  /// returns the hosted parties' output-wire shares unopened. OK means
  /// every party's dealing landed. Other parties' input counts are read
  /// from the circuit — public structure. With a non-null `checkpoint`,
  /// progress is recorded per completed multiplication level and a
  /// previously valid checkpoint resumes instead of restarting — input
  /// sharing is never repeated. An input-phase failure is fatal (a lost
  /// input has no quorum to reconstruct it) and leaves the checkpoint
  /// invalid. A valid checkpoint taken on another circuit fails with
  /// kInvalidArgument.
  Result<SharedVector> EvaluateToShares(
      const Circuit& circuit, const std::vector<std::vector<int64_t>>& inputs,
      BgwCheckpoint* checkpoint = nullptr);

  /// One input-dealing round: `dealer` deals `count` elements and every
  /// hosted party receives its row. `values` (encoded) is read only when
  /// the dealer is hosted. The traffic is tagged "input". A dead dealer,
  /// or a failed receive, fails kUnavailable under every policy.
  Result<SharedVector> ShareFrom(size_t dealer,
                                 const std::vector<Field::Element>& values,
                                 size_t count);

  /// Phase 3: opens output shares to all parties (over the survivors when
  /// a tracker is attached) and returns the first hosted party's opening.
  Result<std::vector<int64_t>> OpenOutputs(const SharedVector& out_shares);

  /// Attaches (or detaches, with nullptr) the failure detector every
  /// hosted party shares. Must outlive the engine while attached.
  void set_liveness(LivenessTracker* tracker);

  /// Enables conformance verification when the engine hosts every party
  /// (default off): input dealings and Mul outputs must be consistent
  /// degree-t sharings over the alive parties, and an open compares every
  /// hosted recipient's copy of each broadcast and checks the degree. Every
  /// single-message wire tamper then surfaces as an error Status instead of
  /// a silent wrong open (tests/adversary_test.cc); a deployment would need
  /// verifiable secret sharing for the same guarantee.
  void set_verify_sharings(bool verify) { verify_sharings_ = verify; }

  /// Marks the trailing `count` elements of every hosted party's dealings
  /// as its noise (see PartyProtocol::set_noise_inputs).
  void set_noise_inputs(size_t count);
  /// Noise dealing time summed over the hosted parties.
  double noise_deal_seconds() const;

  /// Called at the start of every multiplication level with the level
  /// index. The sqm-party daemon's --crash-at-mul-level hook (raising
  /// SIGKILL mid-protocol for the resilience tests) attaches here.
  void set_mul_level_hook(std::function<void(size_t)> hook) {
    mul_level_hook_ = std::move(hook);
  }

  /// Called with the checkpoint after the input phase and after every
  /// level; the recovery layer persists a durable snapshot there, so a
  /// kill -9 loses at most the level in flight.
  void set_checkpoint_sink(std::function<void(const BgwCheckpoint&)> sink) {
    checkpoint_sink_ = std::move(sink);
  }

  /// Recovery mode (see PartyProtocol::set_recovery_mode); needs an engine
  /// hosting one party.
  void set_recovery_mode(bool on);

  /// The PartyProtocol of the `index`-th hosted party (resume barrier and
  /// RNG save/restore are per party).
  PartyProtocol& party(size_t index) { return parties_[index]; }

  /// Report for the most recent EvaluateToShares call.
  const BgwExecutionReport& last_report() const { return last_report_; }

 private:
  /// Discards every deliverable message addressed to a hosted party.
  size_t DrainPending();
  bool Dead(size_t party) const {
    return liveness_ != nullptr && liveness_->IsDead(party);
  }
  /// The trace track of the engine's own spans: the caller's in driver
  /// mode, the party's when it hosts one.
  int32_t Track() const;

  /// One GRR multiplication over the hosted rows `a` x `b` (one round,
  /// two with a tracker); the products replace `a`'s rows and dead
  /// hosted parties' rows are zeroed.
  Status Mul(SharedVector* a, SharedVector* b);

  /// Conformance check: every element of `a` must be a consistent
  /// degree-threshold sharing across the alive parties.
  /// kIntegrityViolation names `where` and the offending element.
  Status VerifySharing(const SharedVector& a, const std::string& where) const;

  bool Verifying() const { return verify_sharings_ && hosts_all(); }

  const ShamirScheme scheme_;
  Transport* network_;
  size_t first_;  ///< Index of the first hosted party.
  std::vector<PartyProtocol> parties_;
  LivenessTracker* liveness_ = nullptr;
  bool verify_sharings_ = false;
  bool recovery_mode_ = false;
  std::function<void(size_t)> mul_level_hook_;
  std::function<void(const BgwCheckpoint&)> checkpoint_sink_;
  BgwExecutionReport last_report_;
};

}  // namespace sqm

#endif  // SQM_MPC_BGW_H_
