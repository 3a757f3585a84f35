#include "net/liveness.h"

#include "core/logging.h"

namespace sqm {

const char* PartyLivenessToString(PartyLiveness state) {
  switch (state) {
    case PartyLiveness::kAlive:
      return "alive";
    case PartyLiveness::kSuspected:
      return "suspected";
    case PartyLiveness::kDead:
      return "dead";
  }
  return "unknown";
}

LivenessTracker::LivenessTracker(size_t num_parties)
    : num_parties_(num_parties), states_(num_parties) {
  SQM_CHECK(num_parties >= 1);
}

PartyLiveness LivenessTracker::state(size_t party) const {
  SQM_CHECK(party < num_parties_);
  MutexLock lock(mu_);
  return states_[party].liveness;
}

bool LivenessTracker::IsDead(size_t party) const {
  return state(party) == PartyLiveness::kDead;
}

void LivenessTracker::RecordFailure(size_t party, StatusCode code) {
  SQM_CHECK(party < num_parties_);
  MutexLock lock(mu_);
  State& s = states_[party];
  if (s.liveness == PartyLiveness::kDead) return;
  if (code == StatusCode::kUnavailable) {
    s.liveness = PartyLiveness::kDead;
    return;
  }
  ++s.consecutive_failures;
  if (s.consecutive_failures >= kDeadAfter) {
    s.liveness = PartyLiveness::kDead;
  } else if (s.consecutive_failures >= kSuspectAfter) {
    s.liveness = PartyLiveness::kSuspected;
  }
}

void LivenessTracker::RecordSuccess(size_t party) {
  SQM_CHECK(party < num_parties_);
  MutexLock lock(mu_);
  State& s = states_[party];
  if (s.liveness == PartyLiveness::kDead) return;
  s.consecutive_failures = 0;
  s.liveness = PartyLiveness::kAlive;
}

void LivenessTracker::MarkDead(size_t party) {
  SQM_CHECK(party < num_parties_);
  MutexLock lock(mu_);
  states_[party].liveness = PartyLiveness::kDead;
}

void LivenessTracker::Revive(size_t party) {
  SQM_CHECK(party < num_parties_);
  MutexLock lock(mu_);
  states_[party] = State{};
}

std::vector<size_t> LivenessTracker::Survivors() const {
  MutexLock lock(mu_);
  std::vector<size_t> out;
  out.reserve(states_.size());
  for (size_t j = 0; j < states_.size(); ++j) {
    if (states_[j].liveness != PartyLiveness::kDead) out.push_back(j);
  }
  return out;
}

std::vector<size_t> LivenessTracker::Dead() const {
  MutexLock lock(mu_);
  std::vector<size_t> out;
  for (size_t j = 0; j < states_.size(); ++j) {
    if (states_[j].liveness == PartyLiveness::kDead) out.push_back(j);
  }
  return out;
}

size_t LivenessTracker::num_alive() const {
  MutexLock lock(mu_);
  size_t alive = 0;
  for (const State& s : states_) {
    if (s.liveness != PartyLiveness::kDead) ++alive;
  }
  return alive;
}

size_t LivenessTracker::num_dead() const {
  return num_parties_ - num_alive();
}

void LivenessTracker::Reset() {
  MutexLock lock(mu_);
  for (State& s : states_) s = State{};
}

}  // namespace sqm
