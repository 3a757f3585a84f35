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
/// are recovered by the transport's retry path. Every communicating entry
/// point returns a Status on failure: a receive that fails even after the
/// transport's retries (e.g. from a crashed party) fails the call.
///
/// Dropout tolerance: attach a LivenessTracker via set_liveness(). Parties
/// the tracker declares dead are skipped entirely (no sends, no timeout
/// windows burned), a failed receive drops that Mul dealer or open
/// broadcaster instead of failing the call, and recombination / opening
/// interpolate over the surviving evaluation points: any 2t+1 usable
/// dealers recombine a product to the same degree-t sharing free
/// coefficient, so a degraded run's released values are bit-identical to
/// the no-crash run's. Fewer than 2t+1 usable dealers fails with
/// kUnavailable naming the quorum shortfall. Without a tracker the skips
/// do nothing, so the traffic pattern is the same.
class BgwProtocol {
 public:
  /// `network` must outlive the protocol and have the same party count as
  /// `scheme`. `seed` drives all sharing randomness.
  BgwProtocol(ShamirScheme scheme, Transport* network, uint64_t seed);

  size_t num_parties() const { return scheme_.num_parties(); }
  const ShamirScheme& scheme() const { return scheme_; }

  /// Party `party` inputs plaintext `values`; everyone ends up with shares.
  /// `phase_label` tags the traffic (e.g. "input", "topup"). A dead
  /// dealer, or a failed receive during the round, fails with kUnavailable
  /// — a lost *input* cannot be degraded around (the secret is gone), only
  /// the dealing party excluded by the caller. A dealing of the wrong
  /// length fails with kIntegrityViolation.
  Result<SharedVector> ShareFromParty(
      size_t party, const std::vector<Field::Element>& values,
      const std::string& phase_label = "input");

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
  /// round. Consumes its operands: the product is returned in `a`'s
  /// storage.
  Result<SharedVector> Mul(SharedVector a, SharedVector b);

  /// Sum of all elements into a 1-element shared vector; local.
  SharedVector SumElements(const SharedVector& a) const;

  /// Inner product <a, b> as a 1-element shared vector: one Mul round plus
  /// a local sum.
  Result<SharedVector> InnerProduct(const SharedVector& a,
                                    const SharedVector& b);

  /// Opens the shared vector to all parties (one round) and returns the
  /// plaintext, interpolated over any threshold+1 usable broadcasters
  /// (kFailedPrecondition below that).
  Result<std::vector<Field::Element>> Open(const SharedVector& a);

  /// Convenience: opens and decodes to centered signed integers.
  Result<std::vector<int64_t>> OpenSigned(const SharedVector& a);

  /// Enables conformance verification (default off, so benchmark timings
  /// and traffic are unchanged): input dealings and Mul outputs must be
  /// consistent degree-t sharings, and Open additionally compares every
  /// recipient's copy of a broadcast and checks the opened shares'
  /// degree. With verification on, every single-message wire tamper
  /// (additive perturbation, bit flip, wrong-degree dealing, equivocation,
  /// replay, swallow) surfaces as a descriptive error Status instead of a
  /// silent wrong open — the property tests/adversary_test.cc asserts per
  /// policy. A real deployment would get the same guarantee from
  /// verifiable secret sharing / authenticated shares; in this
  /// single-process simulation the global view makes the check direct.
  void set_verify_sharings(bool verify) { verify_sharings_ = verify; }
  bool verify_sharings() const { return verify_sharings_; }

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

  /// Attaches (or detaches, with nullptr) a shared failure detector. Must
  /// outlive the protocol while attached.
  void set_liveness(LivenessTracker* tracker) { liveness_ = tracker; }
  LivenessTracker* liveness() const { return liveness_; }

  /// Discards every currently deliverable queued message. Called when
  /// resuming from a checkpoint after a failed round, so stale sub-shares
  /// from the aborted round cannot mix into the retry's fresh randomness.
  /// Driver-mode only (single protocol-driving thread).
  size_t DrainPending();

 private:
  bool PartyDead(size_t party) const {
    return liveness_ != nullptr && liveness_->IsDead(party);
  }

  ShamirScheme scheme_;
  Transport* network_;
  LivenessTracker* liveness_ = nullptr;
  bool verify_sharings_ = false;
  size_t noise_inputs_ = 0;
  double noise_deal_seconds_ = 0.0;
  std::vector<Rng> party_rngs_;  // Independent randomness per party.
  std::vector<Field::Element> degree2t_lagrange_;
};

}  // namespace sqm

#endif  // SQM_MPC_PROTOCOL_H_
