#ifndef SQM_MPC_PARTY_PROTOCOL_H_
#define SQM_MPC_PARTY_PROTOCOL_H_

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

/// One BGW party: the only implementation of the protocol's messages. It
/// holds party `me`'s dealing stream and its row of every shared vector.
/// BgwEngine (mpc/bgw.h) hosts one per party it runs — all n in driver
/// mode, `{me}` in a deployment — so both hostings release BIT-IDENTICAL
/// values (tests/party_protocol_test.cc, deploy_smoke).
///
/// Each communicating step is split at its round boundary into a send half
/// and a receive half; the engine ends the round once for every party it
/// hosts. Without a liveness tracker a failed receive fails the step; with
/// one the peer is recorded and skipped, and a Mul adds a census round
/// (phase "census"): survivors broadcast a bitmask of the dealers they
/// received and all recombine over the intersection's first 2t+1 dealers.
/// The census is agreement under crash-stop failures with reliable links
/// among survivors, not Byzantine consensus. Masks are one u64, so a
/// tracked run supports at most 64 parties (SqmPlan::Create refuses more).
class PartyProtocol {
 public:
  using Shares = std::vector<Field::Element>;

  /// What one party received in an open: `broadcasts[j]` is party j's share
  /// vector (empty if it did not deliver) and `survivors` the parties that
  /// delivered, ascending.
  struct Opening {
    std::vector<Shares> broadcasts;
    std::vector<size_t> survivors;
  };

  /// `scheme` and `transport` must outlive the protocol. `stream` is this
  /// party's dealing randomness (DeriveStream, or the engine's one-pass
  /// split of all n streams).
  PartyProtocol(const ShamirScheme& scheme, Transport* transport, Rng stream,
                size_t me);

  /// Party `me`'s dealing stream: stream `me` of Rng(seed).Split(0..n-1),
  /// replayed in order (each Split consumes parent draws but never data),
  /// so one party derives exactly the stream a driver hosting all n draws.
  static Rng DeriveStream(uint64_t seed, size_t me);

  size_t num_parties() const { return scheme_.num_parties(); }
  size_t me() const { return me_; }

  /// Attaches (or detaches) the failure detector: a local view, reconciled
  /// by the census. Parties hosted together share one.
  void set_liveness(LivenessTracker* tracker);

  /// Marks the trailing `count` elements of this party's dealings as its
  /// noise, dealt as a second batch into the same message
  /// (ShamirScheme::ShareBatchWithTail) and timed in noise_deal_seconds().
  void set_noise_inputs(size_t count) { noise_inputs_ = count; }
  double noise_deal_seconds() const { return noise_deal_seconds_; }

  /// Input dealing, send half: deals `values` (this party is the dealer)
  /// and sends every party believed alive its row.
  void DealInput(const std::vector<Field::Element>& values);

  /// Input dealing, receive half: this party's row of `dealer`'s
  /// `count`-element dealing. With a tracker, a failed receive fails
  /// kUnavailable (a lost input has no quorum); a dealing of the wrong
  /// length fails kIntegrityViolation.
  Result<Shares> ReceiveInput(size_t dealer, size_t count);

  /// Mul, send half: multiplies the rows locally into `*a` (a degree-2t
  /// sharing of the products), frees `*b`, re-shares the products at
  /// degree t and sends the sub-shares to the parties believed alive.
  void MulDeal(Shares* a, Shares* b);

  /// Mul, receive half: collects `k`-element sub-share batches. Without a
  /// tracker a failed receive fails the Mul; with one the dealer is
  /// recorded, skipped and left out of this party's census vote.
  Status MulCollect(size_t k);

  /// Census round of a tracked Mul, send half: broadcasts the vote.
  void CensusSend();

  /// Census, receive half: intersects every delivered vote. In recovery
  /// mode anything short of every non-dead party dealing and voting fails
  /// the level with kUnavailable.
  Status CensusTally();

  /// Recombines the first 2t+1 agreed dealers (dealers 0..2t without a
  /// tracker) into `*a`, with the degree-2t weights when they are dealers
  /// 0..2t, else fresh Lagrange weights for exactly their points. Fewer
  /// than 2t+1 agreed dealers fails kUnavailable naming the shortfall.
  Status Recombine(Shares* a);

  /// Open, send half: broadcasts this party's row.
  void OpenSend(const Shares& a);

  /// Open, receive half: every `k`-element broadcast this party received.
  /// With a tracker dead or failed parties are skipped; any t+1 shares of
  /// a consistent sharing agree on the value.
  Result<Opening> OpenCollect(size_t k);

  /// Discards every deliverable message addressed to this party. Called
  /// between a failed multiplication level and its checkpoint retry.
  size_t DrainPending();

  /// Recovery mode changes two behaviors, both needed for supervised
  /// restart+rejoin (see docs/DEPLOYMENT.md "Recovery & supervision"):
  ///  - Full-quorum multiplications: Mul fails the level unless the
  ///    census agreed on EVERY non-dead party's dealing and every alive
  ///    party voted, so all parties fail a level together and meet at the
  ///    same resume barrier instead of partitioning into a degraded
  ///    majority and an orphaned restartee.
  ///  - Marker tolerance: every receive site discards late resume-barrier
  ///    markers (a peer that finished its barrier first may send one final
  ///    marker round into our next protocol phase).
  /// Requires a LivenessTracker, one hosted party per process and an
  /// immediate-delivery transport (TCP; the lockstep transport defers
  /// delivery to EndRound and cannot run the barrier's resend loop).
  void set_recovery_mode(bool on) { recovery_mode_ = on; }

  /// Resynchronization point after a failed level or a supervised restart.
  ///
  /// Every participant announces the level it can resume from, encoded as
  /// 0 = "no checkpoint, full redo" or next_level + 1 otherwise, and loops
  /// {resend marker, try receive} per unresolved peer until each is either
  /// marker-resolved (answered with its own marker) or positively dead
  /// (transport kUnavailable), or `deadline_seconds` elapses — peers still
  /// unresolved at the deadline are MarkDead. Marker-resolved peers are
  /// Revive()d (the sanctioned resurrection: the minimum announced level
  /// is redone by everyone, so no pre-crash share can reach a quorum).
  ///
  /// Returns the minimum encoded level across self and every
  /// marker-resolved peer: 0 means redo from scratch (invalidate the
  /// checkpoint), v > 0 means set next_level = v - 1 and redo from there.
  /// Redoing a completed level is safe: mul wires are overwritten with
  /// freshly dealt, census-consistent sub-shares, and non-mul gates are
  /// pure functions of their inputs.
  Result<uint64_t> ResumeBarrier(double deadline_seconds,
                                 uint64_t my_encoded_level);

  /// True when `payload` is a resume-barrier marker (size-3 payload whose
  /// first two words are magic values above the field modulus, so no
  /// share, census, or opening payload can collide with it).
  static bool IsRecoveryMarker(const Transport::Payload& payload);

  /// Snapshot / restore of this party's protocol RNG stream, so a durable
  /// checkpoint can resume share dealing bit-identically: the restarted
  /// process regenerates exactly the sub-share randomness the crashed one
  /// would have drawn next.
  void SaveRngState(uint64_t out[4]) const { my_rng_.SaveState(out); }
  void RestoreRngState(const uint64_t state[4]) {
    my_rng_ = Rng::FromState(state);
  }

 private:
  /// Receive that discards late resume-barrier markers in recovery mode.
  /// ALL protocol receive sites must go through this: a peer that left the
  /// barrier first may push one final marker round into our next phase.
  Result<Transport::Payload> RecvData(size_t from);

  /// Feeds a receive failure to the liveness tracker — except that in
  /// recovery mode only the transport's positive kUnavailable counts as
  /// death (timeouts fail the level but keep the peer revivable). Callers
  /// must hold a non-null liveness_.
  void RecordRecvFailure(size_t party, StatusCode code);

  bool PartyDead(size_t party) const {
    return liveness_ != nullptr && liveness_->IsDead(party);
  }

  const ShamirScheme& scheme_;
  Transport* network_;
  LivenessTracker* liveness_ = nullptr;
  size_t noise_inputs_ = 0;
  double noise_deal_seconds_ = 0.0;
  size_t me_;
  Rng my_rng_;
  bool recovery_mode_ = false;

  // A Mul between its halves: the kept sub-share batches by dealer, this
  // party's census vote (the dealers it received) and the agreed set.
  std::vector<Shares> sub_shares_;
  uint64_t vote_ = 0;
  uint64_t agreed_ = 0;
};

}  // namespace sqm

#endif  // SQM_MPC_PARTY_PROTOCOL_H_
