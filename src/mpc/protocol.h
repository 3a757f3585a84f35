#ifndef SQM_MPC_PROTOCOL_H_
#define SQM_MPC_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/transport.h"
#include "sampling/rng.h"

namespace sqm {

class BeaverTriplePool;

/// A secret-shared vector: element i is Shamir-shared across all parties,
/// shares(party)[i] being party's share. Produced and consumed by
/// BgwProtocol; callers never see plaintext until Open().
class SharedVector {
 public:
  SharedVector() = default;
  SharedVector(size_t num_parties, size_t size)
      : shares_(num_parties, std::vector<Field::Element>(size, 0)) {}

  size_t num_parties() const { return shares_.size(); }
  size_t size() const { return shares_.empty() ? 0 : shares_[0].size(); }

  std::vector<Field::Element>& shares(size_t party) { return shares_[party]; }
  const std::vector<Field::Element>& shares(size_t party) const {
    return shares_[party];
  }

 private:
  std::vector<std::vector<Field::Element>> shares_;
};

/// Vectorized semi-honest BGW primitives over an abstract transport.
///
/// Executes all parties in one process, exactly following the message
/// pattern of the real protocol so that communication counters and round
/// counts are faithful:
///  - `ShareFromParty` — the input phase (one round of n-1 sends).
///  - `Add`/`Sub`/`ScaleConst`/`AddPublic` — local, no communication.
///  - `Mul` — each party multiplies its shares locally (degree-2t sharing),
///    re-shares the product with a fresh degree-t polynomial, and the
///    parties recombine with the degree-2t Lagrange weights (GRR
///    degree-reduction; one round, n*(n-1) messages per batch).
///  - `Open` — each party broadcasts its share; everyone interpolates
///    (one round).
///
/// All element-wise operations are batched: a Mul over a K-element vector
/// costs one round and n*(n-1) messages of K elements, matching how a real
/// implementation would pack a round's traffic.
///
/// The protocol is transport-agnostic: over LockstepTransport it reproduces
/// the paper's deterministic simulation; over ThreadedTransport the same
/// message pattern runs with blocking receives, and fault-injected drops
/// are recovered by the transport's retry path. `Mul` surfaces transport
/// failures (e.g. a crashed party) as an error Status; `ShareFromParty` and
/// `Open` assume delivery eventually succeeds (retries included) and abort
/// on an exhausted channel, which in a correct configuration indicates a
/// protocol bug rather than a recoverable fault.
///
/// Dropout tolerance: attach a LivenessTracker via set_liveness() to switch
/// Mul into its quorum path and enable TryShareFromParty / TryOpen /
/// TryOpenSigned. Parties the tracker declares dead are skipped entirely
/// (no sends, no timeout windows burned), and recombination / opening
/// interpolate over the surviving evaluation points: any 2t+1 usable
/// dealers recombine a product to the same degree-t sharing free
/// coefficient, so a degraded run's released values are bit-identical to
/// the no-crash run's. Fewer than 2t+1 usable dealers fails with
/// kUnavailable naming the quorum shortfall. Without a tracker the legacy
/// behavior (and traffic pattern) is unchanged.
class BgwProtocol {
 public:
  /// `network` must outlive the protocol and have the same party count as
  /// `scheme`. `seed` drives all sharing randomness.
  BgwProtocol(ShamirScheme scheme, Transport* network, uint64_t seed);

  size_t num_parties() const { return scheme_.num_parties(); }
  const ShamirScheme& scheme() const { return scheme_; }

  /// Party `party` inputs plaintext `values`; everyone ends up with shares.
  SharedVector ShareFromParty(size_t party,
                              const std::vector<Field::Element>& values);

  /// Shares a public constant vector (deterministic degree-0 "sharing";
  /// no communication — every party just adopts the constant).
  SharedVector SharePublic(const std::vector<Field::Element>& values) const;

  /// Element-wise addition/subtraction; local.
  Result<SharedVector> Add(const SharedVector& a, const SharedVector& b) const;
  Result<SharedVector> Sub(const SharedVector& a, const SharedVector& b) const;

  /// Multiplies every element by public constant c; local.
  SharedVector ScaleConst(const SharedVector& a, Field::Element c) const;

  /// Adds a public vector to a shared vector; local.
  Result<SharedVector> AddPublic(const SharedVector& a,
                                 const std::vector<Field::Element>& pub) const;

  /// Element-wise product with GRR degree reduction; one communication
  /// round.
  Result<SharedVector> Mul(const SharedVector& a, const SharedVector& b);

  /// Sum of all elements into a 1-element shared vector; local.
  SharedVector SumElements(const SharedVector& a) const;

  /// Inner product <a, b> as a 1-element shared vector: one Mul round plus
  /// a local sum.
  Result<SharedVector> InnerProduct(const SharedVector& a,
                                    const SharedVector& b);

  /// Opens the shared vector to all parties (one round) and returns the
  /// plaintext.
  std::vector<Field::Element> Open(const SharedVector& a);

  /// Convenience: opens and decodes to centered signed integers.
  std::vector<int64_t> OpenSigned(const SharedVector& a);

  /// Enables conformance verification (default off, so benchmark timings
  /// and traffic are unchanged): Mul additionally checks that the
  /// recombined product is a consistent degree-t sharing, and the Checked
  /// entry points below become the preferred input/open paths. With
  /// verification on, every single-message wire tamper (additive
  /// perturbation, bit flip, wrong-degree dealing, equivocation, replay,
  /// swallow) surfaces as a descriptive error Status instead of a silent
  /// wrong open — the property tests/adversary_test.cc asserts per policy.
  /// A real deployment would get the same guarantee from verifiable secret
  /// sharing / authenticated shares; in this single-process simulation the
  /// global view makes the check direct.
  void set_verify_sharings(bool verify) {
    verify_sharings_ = verify;
    // Also arm the scheme-level debug assert: Reconstruct checks that ALL
    // n shares lie on the interpolated polynomial instead of silently
    // using only the first threshold+1.
    scheme_.set_verify_reconstruction(verify);
  }
  bool verify_sharings() const { return verify_sharings_; }

  /// Attaches an offline-dealt BeaverTriplePool (nullptr detaches); Mul
  /// switches from GRR degree reduction to the Beaver online path: one
  /// opening of (x-a, y-b) per Mul, consuming one triple per element, and
  /// no census round on the quorum path (the opened values are public, so
  /// any t+1 survivor shares agree without a dealer-set agreement round).
  /// The pool must outlive the protocol while attached; exhaustion
  /// surfaces as the pool's kFailedPrecondition.
  void set_beaver_pool(BeaverTriplePool* pool) { beaver_pool_ = pool; }
  BeaverTriplePool* beaver_pool() const { return beaver_pool_; }

  /// Beaver triples consumed by Mul since construction (0 under GRR).
  size_t beaver_triples_used() const { return beaver_triples_used_; }

  /// Marks the trailing `count` elements of every dealing (input phase and
  /// top-up) as the dealer's noise: they are dealt as a second batch into
  /// the same message (ShamirScheme::ShareBatchWithTail), so traffic and
  /// randomness are unchanged, and their dealing time accumulates in
  /// noise_deal_seconds(). 0 (the default) deals every input in one batch.
  void set_noise_inputs(size_t count) { noise_inputs_ = count; }
  double noise_deal_seconds() const { return noise_deal_seconds_; }

  /// Conformance check: every element of `a` must be a consistent
  /// degree-threshold sharing across all parties (or across the alive
  /// parties when a liveness tracker is attached). kIntegrityViolation
  /// names `where` and the offending element on failure.
  Status VerifySharing(const SharedVector& a, const std::string& where) const;

  /// Input sharing that surfaces transport failures and (when verification
  /// is enabled) inconsistent dealings as a Status instead of aborting:
  /// the conformance-hardened replacement for ShareFromParty.
  Result<SharedVector> ShareFromPartyChecked(
      size_t party, const std::vector<Field::Element>& values);

  /// Opening hardened against byzantine broadcasters: receives every
  /// recipient's copy, fails with kIntegrityViolation when a broadcaster
  /// equivocated (sent different share vectors to different recipients) or
  /// when the collected shares are not a consistent degree-t sharing, and
  /// surfaces receive failures as their transport Status. Traffic pattern
  /// is identical to Open.
  Result<std::vector<Field::Element>> OpenChecked(const SharedVector& a);
  Result<std::vector<int64_t>> OpenSignedChecked(const SharedVector& a);

  /// Attaches (or detaches, with nullptr) a shared failure detector. Must
  /// outlive the protocol while attached. With a tracker, Mul runs its
  /// quorum path and the Try* entry points become dropout-tolerant.
  void set_liveness(LivenessTracker* tracker) { liveness_ = tracker; }
  LivenessTracker* liveness() const { return liveness_; }

  /// Dropout-tolerant input sharing. A dead dealer, or a receive failure
  /// during the round, fails with kUnavailable — a lost *input* cannot be
  /// degraded around (the secret is gone), only the dealing party excluded
  /// by the caller. `phase_label` tags the traffic (e.g. "input", "topup").
  Result<SharedVector> TryShareFromParty(
      size_t party, const std::vector<Field::Element>& values,
      const std::string& phase_label = "input");

  /// Dropout-tolerant opening: dead parties neither broadcast nor receive,
  /// and reconstruction interpolates over any threshold+1 usable
  /// survivors' shares (kFailedPrecondition below that).
  Result<std::vector<Field::Element>> TryOpen(const SharedVector& a);
  Result<std::vector<int64_t>> TryOpenSigned(const SharedVector& a);

  /// Discards every currently deliverable queued message. Called when
  /// resuming from a checkpoint after a failed round, so stale sub-shares
  /// from the aborted round cannot mix into the retry's fresh randomness.
  /// Driver-mode only (single protocol-driving thread).
  size_t DrainPending();

 private:
  /// Quorum-path multiplication used when a tracker is attached.
  Result<SharedVector> MulQuorum(const SharedVector& a,
                                 const SharedVector& b);

  /// Beaver online multiplication used when a pool is attached: one
  /// opening (tagged to the "mul" phase) plus local combination.
  Result<SharedVector> MulBeaver(const SharedVector& a,
                                 const SharedVector& b);

  /// Broadcast-and-reconstruct bodies shared by Open/TryOpen and
  /// MulBeaver; the caller owns the PhaseScope so the traffic lands in
  /// the right phase bucket.
  std::vector<Field::Element> OpenInPhase(const SharedVector& a);
  Result<std::vector<Field::Element>> TryOpenInPhase(const SharedVector& a);

  /// Party `party`'s dealing of `values`, one row per recipient, with the
  /// trailing noise inputs dealt and timed separately.
  std::vector<std::vector<Field::Element>> DealInputs(
      size_t party, const std::vector<Field::Element>& values);

  bool PartyDead(size_t party) const {
    return liveness_ != nullptr && liveness_->IsDead(party);
  }

  ShamirScheme scheme_;
  Transport* network_;
  LivenessTracker* liveness_ = nullptr;
  BeaverTriplePool* beaver_pool_ = nullptr;
  bool verify_sharings_ = false;
  size_t beaver_triples_used_ = 0;
  size_t noise_inputs_ = 0;
  double noise_deal_seconds_ = 0.0;
  std::vector<Rng> party_rngs_;  // Independent randomness per party.
  std::vector<Field::Element> degree2t_lagrange_;
};

}  // namespace sqm

#endif  // SQM_MPC_PROTOCOL_H_
