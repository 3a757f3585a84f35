#include "mpc/party_protocol.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/logging.h"
#include "obs/trace.h"

namespace sqm {
namespace {

/// Resume-barrier marker words. Both exceed the field modulus 2^61 - 1, so
/// no share or opening payload can contain them; census votes are size-1
/// payloads and markers are size-3, so those cannot collide either.
constexpr uint64_t kRecoveryMagic0 = 0x53514d5245434f56ULL;  // "SQMRECOV"
constexpr uint64_t kRecoveryMagic1 = 0xfa11bacca5e00001ULL;

/// A census bitmask as "0x" plus lowercase hex digits.
std::string HexMask(uint64_t mask) {
  char buffer[2 + 16 + 1];
  std::snprintf(buffer, sizeof(buffer), "0x%llx",
                static_cast<unsigned long long>(mask));
  return buffer;
}

}  // namespace

PartyProtocol::PartyProtocol(const ShamirScheme& scheme, Transport* transport,
                             Rng stream, size_t me)
    : scheme_(scheme), network_(transport), me_(me), my_rng_(stream) {
  SQM_CHECK(network_ != nullptr);
  SQM_CHECK(network_->num_parties() == scheme_.num_parties());
  SQM_CHECK(me_ < scheme_.num_parties());
}

Rng PartyProtocol::DeriveStream(uint64_t seed, size_t me) {
  Rng root(seed);
  for (size_t j = 0; j < me; ++j) (void)root.Split(j);
  return root.Split(me);
}

void PartyProtocol::set_liveness(LivenessTracker* tracker) {
  // Census votes are one u64 bitmask per party.
  SQM_CHECK(tracker == nullptr || num_parties() <= 64);
  liveness_ = tracker;
}

bool PartyProtocol::IsRecoveryMarker(const Transport::Payload& payload) {
  return payload.size() == 3 && payload[0] == kRecoveryMagic0 &&
         payload[1] == kRecoveryMagic1;
}

Result<Transport::Payload> PartyProtocol::RecvData(size_t from) {
  for (;;) {
    Result<Transport::Payload> received = network_->Receive(from, me_);
    if (!received.ok()) return received;
    if (recovery_mode_ && IsRecoveryMarker(received.ValueOrDie())) {
      // A peer that left the resume barrier before us pushed one final
      // marker round into this phase; it carries no protocol data.
      continue;
    }
    return received;
  }
}

void PartyProtocol::RecordRecvFailure(size_t party, StatusCode code) {
  // Under recovery, declaring a party dead is the TRANSPORT's call alone:
  // a receive timeout fails the level (the full-quorum census turns it
  // into a resume barrier) but must not kill the peer — it may be seconds
  // from a supervised rejoin, and the timeout-count heuristic would
  // declare it dead before its reconnect + rejoin window is anywhere near
  // spent. kUnavailable IS that window expiring, i.e. positive death.
  if (recovery_mode_ && code != StatusCode::kUnavailable) return;
  liveness_->RecordFailure(party, code);
}

void PartyProtocol::DealInput(const std::vector<Field::Element>& values) {
  const size_t n = num_parties();
  std::vector<std::vector<Field::Element>> outbound =
      scheme_.ShareBatchWithTail(values, std::min(noise_inputs_, values.size()),
                                 my_rng_, static_cast<int32_t>(me_),
                                 &noise_deal_seconds_);
  for (size_t j = 0; j < n; ++j) {
    if (j != me_ && PartyDead(j)) continue;
    network_->Send(me_, j, std::move(outbound[j]));
  }
}

Result<PartyProtocol::Shares> PartyProtocol::ReceiveInput(size_t dealer,
                                                          size_t count) {
  Result<Transport::Payload> received = RecvData(dealer);
  if (!received.ok()) {
    if (liveness_ != nullptr) {
      RecordRecvFailure(dealer, received.status().code());
    }
    // A lost input is not degradable: no quorum of other parties holds
    // the dealer's secret. Surface kUnavailable and let the caller decide
    // whether the run can proceed without this input.
    return Status::Unavailable(
        "input sharing from party " + std::to_string(dealer) + " to " +
        std::to_string(me_) + " failed (" + received.status().message() +
        "); inputs cannot be reconstructed by a quorum");
  }
  if (received.ValueOrDie().size() != count) {
    if (recovery_mode_) {
      // Lost-frame skew (see MulCollect): fail the phase retryably so the
      // resume barrier can flush and redo it, instead of treating the
      // dealer's next frame as a forgery.
      return Status::Unavailable(
          "input dealing from party " + std::to_string(dealer) +
          " skewed by a lost frame (" +
          std::to_string(received.ValueOrDie().size()) + " elements, " +
          "expected " + std::to_string(count) + "); retry via barrier");
    }
    return Status::IntegrityViolation(
        "input dealing from party " + std::to_string(dealer) + " to " +
        std::to_string(me_) + " has " +
        std::to_string(received.ValueOrDie().size()) +
        " elements, expected " + std::to_string(count));
  }
  if (liveness_ != nullptr) liveness_->RecordSuccess(dealer);
  return std::move(received).ValueOrDie();
}

void PartyProtocol::MulDeal(Shares* a, Shares* b) {
  const size_t n = num_parties();
  Field::MulVec(a->data(), b->data(), a->data(), a->size());
  Shares().swap(*b);
  std::vector<std::vector<Field::Element>> outbound =
      scheme_.ShareBatch(*a, my_rng_);
  for (size_t r = 0; r < n; ++r) {
    if (r != me_ && PartyDead(r)) continue;
    network_->Send(me_, r, std::move(outbound[r]));
  }
}

Status PartyProtocol::MulCollect(size_t k) {
  const size_t n = num_parties();
  const size_t needed = 2 * scheme_.threshold() + 1;
  // Without a tracker every dealer must deliver, so the dealers are 0..2t
  // and later batches are received and dropped at once. With one, every
  // batch is kept until the census agrees which to recombine; the receipt
  // bitmask is this party's vote.
  sub_shares_.assign(n, Shares());
  vote_ = 0;
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    Result<Transport::Payload> received = RecvData(j);
    if (!received.ok()) {
      if (liveness_ == nullptr) return received.status();
      RecordRecvFailure(j, received.status().code());
      obs::Tracer::Global().Instant(
          "bgw.mul.dealer_failed", "mpc",
          {{"dealer", static_cast<int64_t>(j)},
           {"recipient", static_cast<int64_t>(me_)}});
      continue;
    }
    if (received.ValueOrDie().size() != k) {
      if (recovery_mode_) {
        // Not an attack: when chaos (or a crash) eats the dealer's batch
        // and the link comes back, the dealer's NEXT frame — typically its
        // census vote — arrives where the batch was expected. Consuming it
        // keeps this channel aligned with the dealer's send stream, and
        // leaving dealer j out of the vote makes the census fail the level
        // for everyone; the resume barrier then flushes both sides.
        continue;
      }
      return Status::IntegrityViolation(
          "Mul sub-share batch from dealer " + std::to_string(j) +
          " to party " + std::to_string(me_) + " has " +
          std::to_string(received.ValueOrDie().size()) +
          " elements, expected " + std::to_string(k) +
          " (replayed or stale message)");
    }
    if (liveness_ != nullptr) {
      vote_ |= uint64_t{1} << j;
    } else if (j >= needed) {
      continue;
    }
    sub_shares_[j] = std::move(received).ValueOrDie();
  }
  agreed_ = vote_;
  return Status::OK();
}

void PartyProtocol::CensusSend() {
  // Without agreement two survivors could recombine over different dealer
  // subsets, and the result would not be a consistent degree-t sharing.
  for (size_t r = 0; r < num_parties(); ++r) {
    if (r != me_ && PartyDead(r)) continue;
    network_->Send(me_, r, Transport::Payload{vote_});
  }
}

Status PartyProtocol::CensusTally() {
  // A voter that fails to deliver its mask is treated as failed for this
  // round and excluded from the electorate.
  const size_t n = num_parties();
  size_t voters = 0;
  for (size_t r = 0; r < n; ++r) {
    if (PartyDead(r)) continue;
    Result<Transport::Payload> vote = RecvData(r);
    if (!vote.ok()) {
      RecordRecvFailure(r, vote.status().code());
      continue;
    }
    if (vote.ValueOrDie().size() != 1) {
      if (recovery_mode_) {
        // Mis-sized under recovery = the voter's stream lost a frame
        // upstream (see MulCollect); excluding the voter fails the
        // full-quorum check below, which is the safe symmetric outcome.
        continue;
      }
      return Status::IntegrityViolation(
          "census vote from party " + std::to_string(r) + " has " +
          std::to_string(vote.ValueOrDie().size()) + " elements, expected 1");
    }
    agreed_ &= vote.ValueOrDie()[0];
    ++voters;
  }

  if (recovery_mode_) {
    // Full-quorum rule: every party not positively dead must have dealt to
    // everyone (agreed covers it) AND voted. Anything less fails the level
    // for EVERY party — the degraded-majority shortcut is forbidden, since
    // it would let survivors recombine a level the restarted party never
    // participated in and leave it permanently behind the resume barrier.
    // A party the transport positively declared dead (kUnavailable, i.e.
    // restarts exhausted) is excluded, which is exactly the escalation to
    // the classic degrade path.
    uint64_t full = 0;
    size_t alive = 0;
    for (size_t j = 0; j < n; ++j) {
      if (!PartyDead(j)) {
        full |= uint64_t{1} << j;
        ++alive;
      }
    }
    if (agreed_ != full || voters != alive) {
      return Status::Unavailable(
          "Mul full-quorum failure under recovery: census agreed " +
          HexMask(agreed_) + " of expected " + HexMask(full) + ", " +
          std::to_string(voters) + "/" + std::to_string(alive) +
          " alive parties voted; failing the level for a resume barrier");
    }
  }
  return Status::OK();
}

Status PartyProtocol::Recombine(Shares* a) {
  const size_t n = num_parties();
  const size_t needed = 2 * scheme_.threshold() + 1;
  // The first 2t+1 agreed dealers, so degraded outputs equal the no-crash
  // outputs (any 2t+1 recombine to the same free coefficient).
  std::vector<size_t> dealers;
  size_t usable = 0;
  for (size_t j = 0; j < n; ++j) {
    if (liveness_ == nullptr) {
      if (j == needed) break;
    } else {
      if (((agreed_ >> j) & 1) == 0) continue;
      liveness_->RecordSuccess(j);
    }
    ++usable;
    if (dealers.size() < needed) dealers.push_back(j);
  }
  if (dealers.size() < needed) {
    return Status::Unavailable(
        "Mul quorum shortfall: degree-2t recombination needs 2t+1 = " +
        std::to_string(needed) + " dealers, only " + std::to_string(usable) +
        " of " + std::to_string(n) + " agreed by census (dead: " +
        std::to_string(liveness_->num_dead()) + ")");
  }
  std::vector<Field::Element> fresh;
  if (dealers.back() + 1 != needed) fresh = scheme_.LagrangeAtZero(dealers);
  const std::vector<Field::Element>& weights =
      fresh.empty() ? scheme_.degree2t_weights() : fresh;
  std::vector<const Field::Element*> rows;
  rows.reserve(needed);
  for (size_t dealer : dealers) rows.push_back(sub_shares_[dealer].data());
  Field::LinearCombination(rows.data(), weights.data(), needed, a->data(),
                           a->size());
  std::vector<Shares>().swap(sub_shares_);
  return Status::OK();
}

void PartyProtocol::OpenSend(const Shares& a) {
  for (size_t r = 0; r < num_parties(); ++r) {
    if (r != me_ && PartyDead(r)) continue;
    network_->Send(me_, r, a);
  }
}

Result<PartyProtocol::Opening> PartyProtocol::OpenCollect(size_t k) {
  const size_t n = num_parties();
  Opening opening;
  opening.broadcasts.resize(n);
  size_t expected = 0;
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    ++expected;
    Result<Transport::Payload> received = RecvData(j);
    if (!received.ok()) {
      if (liveness_ == nullptr) return received.status();
      RecordRecvFailure(j, received.status().code());
      continue;
    }
    if (received.ValueOrDie().size() != k) {
      if (recovery_mode_) {
        // Same lost-frame skew as in MulCollect: consume the stray frame
        // to realign with party j's send stream and count j undelivered,
        // which fails the full-quorum check below.
        continue;
      }
      return Status::IntegrityViolation(
          "opened broadcast from party " + std::to_string(j) + " to " +
          std::to_string(me_) + " has " +
          std::to_string(received.ValueOrDie().size()) +
          " elements, expected " + std::to_string(k));
    }
    if (liveness_ != nullptr) liveness_->RecordSuccess(j);
    opening.broadcasts[j] = std::move(received).ValueOrDie();
    opening.survivors.push_back(j);
  }
  if (recovery_mode_ && opening.survivors.size() != expected) {
    // Full-quorum rule, Open edition. The output opening is the LAST
    // exchange, so it is the one place a delivery asymmetry cannot
    // self-heal through the next level's census: any t+1 shares open the
    // same value, so parties that did receive enough would release and
    // exit while a party missing one broadcast fails alone, with nobody
    // left to answer its resume barrier. Failing the open for everyone
    // whenever any non-dead party did not deliver keeps the level-failure
    // decision symmetric (the laggard's own broadcast is late or its link
    // is mid-reconnect in BOTH directions), so all parties converge on
    // the barrier and re-open together.
    return Status::Unavailable(
        "open full-quorum failure under recovery: " +
        std::to_string(opening.survivors.size()) + "/" +
        std::to_string(expected) +
        " non-dead parties delivered; failing for a resume barrier");
  }
  if (opening.survivors.empty()) {
    return Status::Unavailable("open impossible: no broadcast delivered");
  }
  return opening;
}

size_t PartyProtocol::DrainPending() {
  const size_t n = num_parties();
  size_t drained = 0;
  for (size_t j = 0; j < n; ++j) {
    while (network_->HasPending(j, me_)) {
      Result<Transport::Payload> stale = network_->Receive(j, me_);
      if (!stale.ok()) break;
      ++drained;
    }
  }
  return drained;
}

Result<uint64_t> PartyProtocol::ResumeBarrier(double deadline_seconds,
                                              uint64_t my_encoded_level) {
  SQM_CHECK(liveness_ != nullptr);
  const size_t n = num_parties();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_seconds));
  PhaseScope phase(network_, "recover");
  obs::Span span("bgw.resume_barrier", "mpc", static_cast<int32_t>(me_));
  span.AddArg("encoded_level", static_cast<int64_t>(my_encoded_level));

  const Transport::Payload marker{kRecoveryMagic0, kRecoveryMagic1,
                                  my_encoded_level};
  std::vector<bool> resolved(n, false);
  std::vector<bool> via_marker(n, false);
  uint64_t min_level = my_encoded_level;
  resolved[me_] = true;
  // Flush the self channel. Wire channels are flushed below by discarding
  // everything ahead of each peer's marker, but self-sends bypass the
  // wire: a level aborted between its self-send and the matching receive
  // (e.g. an integrity violation on an earlier dealer's batch) leaves the
  // self inbox misaligned, and every later receive on it would be off by
  // one frame. Between levels the self channel is empty by construction,
  // so anything pending here is stale.
  {
    size_t self_stale = 0;
    while (network_->HasPending(me_, me_)) {
      if (!network_->Receive(me_, me_).ok()) break;
      ++self_stale;
    }
    if (self_stale > 0) {
      SQM_LOG(kInfo) << "party " << me_ << " resume barrier: discarded "
                     << self_stale << " stale self-channel frame(s)";
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (j != me_ && PartyDead(j)) resolved[j] = true;  // Stays dead.
  }

  auto all_resolved = [&resolved] {
    for (size_t j = 0; j < resolved.size(); ++j) {
      if (!resolved[j]) return false;
    }
    return true;
  };

  // Resend/receive passes: each pass re-sends the marker to every
  // unresolved peer — a send to a down link vanishes, and a restarted
  // peer's link comes up at an unpredictable point inside the window, so
  // one send is never enough — then waits up to one transport
  // receive-timeout per unresolved peer. Stale pre-barrier payloads
  // arrive ahead of a peer's marker (links are FIFO) and are discarded
  // here, which is what flushes the in-flight state of the failed level.
  // Deliberately no EndRound inside the loop: the barrier is a recovery
  // exchange, not a protocol round, and passes are not synchronized
  // across parties.
  while (!all_resolved() && Clock::now() < deadline) {
    for (size_t j = 0; j < n; ++j) {
      if (!resolved[j]) network_->Send(me_, j, marker);
    }
    for (size_t j = 0; j < n; ++j) {
      if (resolved[j]) continue;
      Result<Transport::Payload> received = network_->Receive(j, me_);
      if (!received.ok()) {
        if (received.status().code() == StatusCode::kUnavailable) {
          // Positively dead: reconnect + rejoin window exhausted, i.e.
          // the supervisor's restarts for this peer are spent (or it was
          // never supervised).
          liveness_->MarkDead(j);
          resolved[j] = true;
        }
        continue;  // Timeout: retry on the next pass.
      }
      const Transport::Payload& payload = received.ValueOrDie();
      if (!IsRecoveryMarker(payload)) continue;  // Stale; discard.
      resolved[j] = true;
      via_marker[j] = true;
      min_level = std::min(min_level, payload[2]);
    }
  }

  size_t timed_out = 0;
  for (size_t j = 0; j < n; ++j) {
    if (!resolved[j]) {
      liveness_->MarkDead(j);
      ++timed_out;
    }
  }
  // Marker-resolved peers proved themselves alive at this barrier. The
  // levels from min_level on are redone by everyone, so reviving them
  // cannot mix a pre-crash share of theirs into any quorum.
  for (size_t j = 0; j < n; ++j) {
    if (via_marker[j]) liveness_->Revive(j);
  }
  // One final marker round to the peers that answered: a peer whose link
  // only just came up may have missed every earlier send (dropped on the
  // down link) yet already delivered ITS marker to us — without this
  // round it would sit at its own barrier until its deadline. Peers that
  // already moved on discard the extra marker at their receive sites.
  for (size_t j = 0; j < n; ++j) {
    if (via_marker[j]) network_->Send(me_, j, marker);
  }
  SQM_LOG(kInfo) << "party " << me_ << " resume barrier done: min level code "
                 << min_level << ", " << timed_out
                 << " peer(s) timed out and declared dead, "
                 << liveness_->num_alive() << "/" << n << " alive";
  return min_level;
}

}  // namespace sqm
