#ifndef SQM_MPC_PARTY_PROTOCOL_H_
#define SQM_MPC_PARTY_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/status.h"
#include "mpc/circuit.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/transport.h"
#include "sampling/rng.h"

namespace sqm {

/// Per-party BGW primitives: the distributed counterpart of BgwProtocol.
///
/// BgwProtocol executes every party in one process — it owns all n RNG
/// streams and all n share rows. PartyProtocol is what one OS process runs
/// in a real deployment: it holds party `me`'s share row only, derives
/// exactly the RNG stream the driver would have assigned to `me` (by
/// replaying the driver's Split sequence, which consumes parent draws but
/// never data), and exchanges the same messages over the transport. The
/// consequence, asserted by tests/party_protocol_test.cc and the
/// deploy_smoke target, is that n PartyProtocol processes release values
/// BIT-IDENTICAL to one driver-mode run with the same seed.
///
/// A "shared vector" here is just this party's row:
/// std::vector<Field::Element> with one share per element.
///
/// Rounds: the driver calls Transport::EndRound once per round. In
/// per-party execution every party signals its own round end; over a
/// TcpTransport that is a plain EndRound (per-process accounting), while n
/// party threads sharing one ThreadedTransport must instead arrive at the
/// transport's round barrier — inject that via set_round_barrier.
///
/// One Mul and one open serve every mode, as in the driver: without a
/// liveness tracker a failed receive fails the call; with one, the failed
/// peer is recorded and skipped. Dropout tolerance then adds one genuinely
/// distributed step: after a multiplication's sub-share exchange the
/// survivors run a census round (phase "census"), broadcasting a bitmask of
/// the dealers they received and intersecting the masks, so every survivor
/// recombines over the SAME 2t+1 dealer set — the property the driver gets
/// for free from its global view. The census is agreement under the
/// documented failure model (crash-stop, reliable links among survivors,
/// failures detected by every survivor within its timeout window); it is
/// not Byzantine consensus. Every open interpolates over the first t+1
/// parties that delivered, which with all n present is the first t+1.
class PartyProtocol {
 public:
  using Shares = std::vector<Field::Element>;
  using RoundFn = std::function<void()>;

  /// `transport` must outlive the protocol. `seed` must equal the driver
  /// seed (BgwEngine's protocol seed) for bit-identical execution; `me` is
  /// this process's party index.
  PartyProtocol(ShamirScheme scheme, Transport* transport, uint64_t seed,
                size_t me);

  size_t num_parties() const { return scheme_.num_parties(); }
  size_t me() const { return me_; }

  /// Attaches (or detaches) the local failure detector. Each party holds
  /// its OWN tracker — liveness is a local view, reconciled where it must
  /// be (multiplications) by the census round.
  void set_liveness(LivenessTracker* tracker) { liveness_ = tracker; }

  /// Overrides how a round end is signaled (default:
  /// transport->EndRound()). Party threads sharing one ThreadedTransport
  /// pass [&] { transport.ArriveRound(me); }.
  void set_round_barrier(RoundFn fn) { round_fn_ = std::move(fn); }

  /// Input phase for dealer `dealer` dealing `count` elements. When
  /// dealer == me, `values` holds the encoded plaintext inputs
  /// (values.size() == count); otherwise `values` is ignored. Every party
  /// returns its own share row. Mirrors BgwProtocol::ShareFromParty: with
  /// a liveness tracker attached, a dead dealer or a failed receive fails
  /// kUnavailable (a lost input has no quorum).
  Result<Shares> ShareFromParty(size_t dealer,
                                const std::vector<Field::Element>& values,
                                size_t count,
                                const std::string& phase_label = "input");

  /// Local addition of own share rows (identical to the driver's per-row
  /// arithmetic); the top-up adds its extra noise shares with it.
  Result<Shares> Add(const Shares& a, const Shares& b) const;

  /// Element-wise product with GRR degree reduction; one communication
  /// round without a tracker, two (sub-shares + census) with one. Consumes
  /// its operands: the product is computed and recombined in `a`'s storage
  /// and `b` is freed once used. Recombines the first 2t+1 agreed dealers
  /// with the degree-2t weights when they are dealers 0..2t, else with
  /// fresh Lagrange weights for exactly their points.
  Result<Shares> Mul(Shares a, Shares b);

  /// Marks the trailing `count` elements of this party's dealings as its
  /// noise; see BgwProtocol::set_noise_inputs.
  void set_noise_inputs(size_t count) { noise_inputs_ = count; }
  double noise_deal_seconds() const { return noise_deal_seconds_; }

  /// Opens to every party (one round) and returns the plaintext. With a
  /// tracker, dead parties are skipped and reconstruction interpolates
  /// over whichever survivors delivered (any t+1 agree on the value).
  Result<std::vector<Field::Element>> Open(const Shares& a);
  Result<std::vector<int64_t>> OpenSigned(const Shares& a);

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
  /// Requires a LivenessTracker and an immediate-delivery transport (TCP
  /// or threaded; the lockstep transport defers delivery to EndRound and
  /// cannot run the barrier's resend loop).
  void set_recovery_mode(bool on) { recovery_mode_ = on; }
  bool recovery_mode() const { return recovery_mode_; }

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
  /// The census round of a tracked Mul: broadcasts `my_mask` (the dealers
  /// this party received) and returns the intersection of every delivered
  /// vote. In recovery mode anything short of every non-dead party dealing
  /// and voting fails the level with kUnavailable.
  Result<uint64_t> Census(uint64_t my_mask);

  /// Receive that discards late resume-barrier markers in recovery mode.
  /// ALL protocol receive sites must go through this: a peer that left the
  /// barrier first may push one final marker round into our next phase.
  Result<Transport::Payload> RecvData(size_t from);

  /// Feeds a receive failure to the liveness tracker — except that in
  /// recovery mode only the transport's positive kUnavailable counts as
  /// death (timeouts fail the level but keep the peer revivable). Callers
  /// must hold a non-null liveness_.
  void RecordRecvFailure(size_t party, StatusCode code);

  void EndRound();
  bool PartyDead(size_t party) const {
    return liveness_ != nullptr && liveness_->IsDead(party);
  }

  ShamirScheme scheme_;
  Transport* network_;
  LivenessTracker* liveness_ = nullptr;
  size_t noise_inputs_ = 0;
  double noise_deal_seconds_ = 0.0;
  const size_t me_;
  Rng my_rng_;
  std::vector<Field::Element> degree2t_lagrange_;
  RoundFn round_fn_;
  bool recovery_mode_ = false;
};

/// Per-party gate-level evaluator: the distributed counterpart of
/// BgwEngine. Evaluates the SAME circuit the driver builds with the same
/// level loop (EvaluateLevels, mpc/circuit.h) on a one-row share table —
/// this party's share per wire — so the message schedule, and therefore
/// the released values, match driver-mode bit for bit. Its checkpoint is a
/// BgwCheckpoint with rows = 1.
class PartyEngine {
 public:
  PartyEngine(ShamirScheme scheme, Transport* network, uint64_t seed,
              size_t me);

  /// `my_inputs` supplies only this party's private inputs (centered
  /// signed), which must number circuit.NumInputsForParty(me). Other
  /// parties' input counts are read from the circuit — public structure.
  Result<PartyProtocol::Shares> EvaluateToShares(
      const Circuit& circuit, const std::vector<int64_t>& my_inputs,
      BgwCheckpoint* checkpoint = nullptr);

  Result<std::vector<int64_t>> OpenOutputs(
      const PartyProtocol::Shares& out_shares);

  void set_liveness(LivenessTracker* tracker) {
    protocol_.set_liveness(tracker);
  }

  /// Called at the start of every multiplication level with the level
  /// index. The sqm-party daemon's --crash-at-mul-level hook (raising
  /// SIGKILL mid-protocol for the resilience tests) attaches here.
  void set_mul_level_hook(std::function<void(size_t)> hook) {
    mul_level_hook_ = std::move(hook);
  }

  /// Called with the in-memory checkpoint after the input phase completes
  /// and again after every completed circuit level. The recovery layer
  /// attaches a sink that persists a durable snapshot (wire shares + RNG
  /// cursor) at each of these phase boundaries, so a kill -9 at any point
  /// loses at most the level in flight.
  void set_checkpoint_sink(std::function<void(const BgwCheckpoint&)> sink) {
    checkpoint_sink_ = std::move(sink);
  }

  PartyProtocol& protocol() { return protocol_; }

 private:
  PartyProtocol protocol_;
  std::function<void(size_t)> mul_level_hook_;
  std::function<void(const BgwCheckpoint&)> checkpoint_sink_;
};

}  // namespace sqm

#endif  // SQM_MPC_PARTY_PROTOCOL_H_
