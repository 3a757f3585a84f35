#ifndef SQM_NET_LIVENESS_H_
#define SQM_NET_LIVENESS_H_

#include <cstddef>
#include <vector>

#include "core/status.h"
#include "core/sync.h"

namespace sqm {

/// Failure-detector verdict for one party.
///
/// State machine (per party, monotone towards kDead):
///   kAlive --(kSuspectAfter consecutive timeouts)--> kSuspected
///   kSuspected --(kDeadAfter consecutive timeouts)--> kDead
///   kSuspected --(successful receive)--> kAlive
///   any --(kUnavailable receive, i.e. the transport knows the peer
///          crashed)--> kDead
/// kDead is absorbing for the protocol layers: a party declared dead never
/// rejoins a round on its own (its sends are stale and its shares must not
/// be mixed back into a quorum). The single sanctioned exception is the
/// recovery layer's Revive(): after a supervised restart the party proved
/// itself alive at a resume barrier, every level it was dead for is redone,
/// so no stale share of its can reach a quorum.
enum class PartyLiveness { kAlive, kSuspected, kDead };

const char* PartyLivenessToString(PartyLiveness state);

/// Consecutive timed-out receives before a party becomes kSuspected.
inline constexpr size_t kSuspectAfter = 1;
/// Consecutive timed-out receives before a suspected party is declared
/// kDead. kUnavailable (the transport's "peer crashed" verdict) kills
/// immediately regardless of this budget.
inline constexpr size_t kDeadAfter = 2;

/// Shared failure detector for one protocol run.
///
/// Protocol layers (PartyProtocol, BgwEngine, the SQM pipeline) feed every
/// receive outcome into one tracker, so a party declared dead during the
/// input phase is skipped — no further timeout windows burned on it — in
/// every later multiplication and opening round. Thread-safe: several
/// threads may record outcomes concurrently.
class LivenessTracker {
 public:
  explicit LivenessTracker(size_t num_parties);

  size_t num_parties() const { return num_parties_; }

  PartyLiveness state(size_t party) const;
  bool IsDead(size_t party) const;

  /// Records a failed receive whose *sender* was `party`. kUnavailable
  /// means the transport positively knows the peer crashed: immediate
  /// death. Any other code (kDeadlineExceeded in practice) counts against
  /// the consecutive-failure budget.
  void RecordFailure(size_t party, StatusCode code);

  /// Records a successful receive from `party`: clears its suspicion
  /// counter and restores kSuspected back to kAlive. A dead party stays
  /// dead.
  void RecordSuccess(size_t party);

  /// Administrative kill (e.g. a quorum decision taken elsewhere).
  void MarkDead(size_t party);

  /// Administrative resurrection: returns `party` to kAlive with a clean
  /// failure counter — even from kDead. ONLY the recovery layer may call
  /// this, and only after the party answered a resume barrier under a new
  /// incarnation (the failed level is then redone by everyone, so none of
  /// the revived party's pre-crash shares can be recombined).
  void Revive(size_t party);

  /// Indices of all non-dead parties, ascending. Suspected parties count
  /// as survivors: they may still deliver, and quorum math should not give
  /// up on them until they are positively dead.
  std::vector<size_t> Survivors() const;

  /// Indices of all dead parties, ascending.
  std::vector<size_t> Dead() const;

  size_t num_alive() const;
  size_t num_dead() const;

  /// Forgets everything (all parties alive). For reusing a tracker across
  /// independent runs, not for resurrecting parties within one.
  void Reset();

 private:
  struct State {
    PartyLiveness liveness = PartyLiveness::kAlive;
    size_t consecutive_failures = 0;
  };

  const size_t num_parties_;
  mutable Mutex mu_;
  std::vector<State> states_ SQM_GUARDED_BY(mu_);
};

}  // namespace sqm

#endif  // SQM_NET_LIVENESS_H_
