#include "mpc/party_protocol.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>

#include "core/logging.h"
#include "mpc/beaver.h"
#include "obs/trace.h"

namespace sqm {
namespace {

/// Replays the driver's per-party Split sequence and keeps stream `me`:
/// BgwProtocol's constructor does root.Split(j) for j = 0..n-1 in order,
/// and each Split consumes parent draws, so the prefix must be consumed
/// identically for stream `me` to match the driver's party_rngs_[me].
Rng DeriveMyStream(uint64_t seed, size_t me) {
  Rng root(seed);
  for (size_t j = 0; j < me; ++j) {
    (void)root.Split(j);
  }
  return root.Split(me);
}

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

PartyProtocol::PartyProtocol(ShamirScheme scheme, Transport* transport,
                             uint64_t seed, size_t me)
    : scheme_(std::move(scheme)),
      network_(transport),
      me_(me),
      my_rng_(DeriveMyStream(seed, me)) {
  SQM_CHECK(network_ != nullptr);
  SQM_CHECK(network_->num_parties() == scheme_.num_parties());
  SQM_CHECK(me_ < scheme_.num_parties());
  SQM_CHECK(scheme_.num_parties() <= 64);  // Census masks are one u64.
  std::vector<size_t> all(2 * scheme_.threshold() + 1);
  std::iota(all.begin(), all.end(), 0);
  degree2t_lagrange_ = scheme_.LagrangeAtZero(all);
}

void PartyProtocol::EndRound() {
  if (round_fn_) {
    round_fn_();
  } else {
    network_->EndRound();
  }
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

Result<PartyProtocol::Shares> PartyProtocol::ShareFromParty(
    size_t dealer, const std::vector<Field::Element>& values, size_t count,
    const std::string& phase_label) {
  const size_t n = num_parties();
  SQM_CHECK(dealer < n);
  if (liveness_ != nullptr && PartyDead(dealer)) {
    return Status::Unavailable("input sharing impossible: dealer party " +
                               std::to_string(dealer) + " is dead");
  }
  PhaseScope phase(network_, phase_label);
  obs::Span span("bgw.share", "mpc", static_cast<int32_t>(me_));
  span.AddArg("party", static_cast<int64_t>(dealer));
  span.AddArg("elements", static_cast<int64_t>(count));
  if (dealer == me_) {
    SQM_CHECK(values.size() == count);
    std::vector<std::vector<Field::Element>> outbound =
        scheme_.ShareBatchWithTail(values, std::min(noise_inputs_, count),
                                   my_rng_, static_cast<int32_t>(me_),
                                   &noise_deal_seconds_);
    for (size_t j = 0; j < n; ++j) {
      if (liveness_ != nullptr && j != me_ && PartyDead(j)) continue;
      network_->Send(me_, j, std::move(outbound[j]));
    }
  }
  EndRound();

  Result<Transport::Payload> received = RecvData(dealer);
  if (!received.ok()) {
    if (liveness_ != nullptr) {
      RecordRecvFailure(dealer, received.status().code());
      return Status::Unavailable(
          "input sharing from party " + std::to_string(dealer) + " failed (" +
          received.status().message() +
          "); inputs cannot be reconstructed by a quorum");
    }
    return received.status();
  }
  if (received.ValueOrDie().size() != count) {
    if (recovery_mode_) {
      // Lost-frame skew (see Mul): fail the phase retryably so the
      // resume barrier can flush and redo it, instead of treating the
      // dealer's next frame as a forgery.
      return Status::Unavailable(
          "input dealing from party " + std::to_string(dealer) +
          " skewed by a lost frame (" +
          std::to_string(received.ValueOrDie().size()) + " elements, " +
          "expected " + std::to_string(count) + "); retry via barrier");
    }
    return Status::IntegrityViolation(
        "input dealing from party " + std::to_string(dealer) + " has " +
        std::to_string(received.ValueOrDie().size()) +
        " elements, expected " + std::to_string(count));
  }
  if (liveness_ != nullptr) liveness_->RecordSuccess(dealer);
  return std::move(received).ValueOrDie();
}

Result<PartyProtocol::Shares> PartyProtocol::Add(const Shares& a,
                                                 const Shares& b) const {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("Add: shape mismatch");
  }
  Shares out(a.size());
  Field::AddVec(a.data(), b.data(), out.data(), a.size());
  return out;
}

Result<PartyProtocol::Shares> PartyProtocol::Mul(Shares a, Shares b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("Mul: shape mismatch");
  }
  if (beaver_pool_ != nullptr) return MulBeaver(a, b);
  const size_t n = num_parties();
  const size_t k = a.size();
  const size_t needed = 2 * scheme_.threshold() + 1;
  PhaseScope phase(network_, "mul");
  obs::Span span("bgw.mul", "mpc", static_cast<int32_t>(me_));
  span.AddArg("elements", static_cast<int64_t>(k));
  if (liveness_ != nullptr) span.AddArg("quorum", 1);

  // The local product batch (shares of a degree-2t sharing) overwrites
  // `a` and `b` is freed; it is re-shared at degree t with this party's
  // driver-identical randomness stream, to the parties believed alive.
  {
    Field::MulVec(a.data(), b.data(), a.data(), k);
    Shares().swap(b);
    std::vector<std::vector<Field::Element>> outbound =
        scheme_.ShareBatch(a, my_rng_);
    for (size_t r = 0; r < n; ++r) {
      if (r != me_ && PartyDead(r)) continue;
      network_->Send(me_, r, std::move(outbound[r]));
    }
  }
  EndRound();

  // Collect sub-share batches. Without a tracker a failed receive fails
  // the Mul — the caller decides how to recover; with one, the dealer is
  // recorded and skipped. The receipt bitmask is this party's census vote.
  uint64_t agreed = 0;
  std::vector<Shares> payloads(n);
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    Result<Transport::Payload> received = RecvData(j);
    if (!received.ok()) {
      if (liveness_ == nullptr) return received.status();
      RecordRecvFailure(j, received.status().code());
      if (obs::Enabled()) {
        obs::TraceEvent event;
        event.name = "bgw.mul.dealer_failed";
        event.category = "mpc";
        event.AddArg("dealer", static_cast<int64_t>(j));
        event.AddArg("recipient", static_cast<int64_t>(me_));
        obs::Tracer::Global().Instant(event);
      }
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
    payloads[j] = std::move(received).ValueOrDie();
    agreed |= uint64_t{1} << j;
  }
  if (liveness_ != nullptr) {
    SQM_ASSIGN_OR_RETURN(agreed, Census(agreed));
  }

  // The first 2t+1 agreed dealers — the same selection rule as the
  // driver, so degraded outputs equal the no-crash outputs.
  std::vector<size_t> dealers;
  size_t usable = 0;
  for (size_t j = 0; j < n; ++j) {
    if (((agreed >> j) & 1) == 0) continue;
    ++usable;
    if (liveness_ != nullptr) liveness_->RecordSuccess(j);
    if (dealers.size() < needed) dealers.push_back(j);
  }
  if (dealers.size() < needed) {
    return Status::Unavailable(
        "Mul quorum shortfall: degree-2t recombination needs 2t+1 = " +
        std::to_string(needed) + " dealers, only " + std::to_string(usable) +
        " of " + std::to_string(n) + " agreed by census (dead: " +
        std::to_string(liveness_->num_dead()) + ")");
  }

  // Recombine into `a` with the Lagrange weights for exactly those
  // dealers' evaluation points.
  const std::vector<Field::Element> weights =
      dealers.back() + 1 == needed ? degree2t_lagrange_
                                   : scheme_.LagrangeAtZero(dealers);
  std::vector<const Field::Element*> rows;
  for (size_t dealer : dealers) rows.push_back(payloads[dealer].data());
  Field::LinearCombination(rows.data(), weights.data(), needed, a.data(), k);
  return a;
}

Result<uint64_t> PartyProtocol::Census(uint64_t my_mask) {
  const size_t n = num_parties();
  // Every survivor broadcasts which dealers it received and the
  // intersection becomes the agreed dealer set. The driver gets this
  // agreement for free (one process sees every channel); distributed
  // parties must exchange it, or two survivors could recombine over
  // different dealer subsets and the result would not be a consistent
  // degree-t sharing. A voter that fails to deliver its mask is treated as
  // failed for this round and excluded from the electorate.
  uint64_t agreed = my_mask;
  size_t voters = 0;
  {
    PhaseScope census_phase(network_, "census");
    for (size_t r = 0; r < n; ++r) {
      if (r != me_ && PartyDead(r)) continue;
      network_->Send(me_, r, Transport::Payload{my_mask});
    }
    EndRound();
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
          // upstream (see the batch-collect case in Mul); excluding the
          // voter fails the full-quorum check below, which is the safe
          // symmetric outcome.
          continue;
        }
        return Status::IntegrityViolation(
            "census vote from party " + std::to_string(r) + " has " +
            std::to_string(vote.ValueOrDie().size()) +
            " elements, expected 1");
      }
      agreed &= vote.ValueOrDie()[0];
      ++voters;
    }
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
    if (agreed != full || voters != alive) {
      return Status::Unavailable(
          "Mul full-quorum failure under recovery: census agreed " +
          HexMask(agreed) + " of expected " + HexMask(full) + ", " +
          std::to_string(voters) + "/" + std::to_string(alive) +
          " alive parties voted; failing the level for a resume barrier");
    }
  }
  return agreed;
}

Result<std::vector<Field::Element>> PartyProtocol::Open(const Shares& a) {
  PhaseScope phase(network_, "open");
  return OpenInPhase(a);
}

Result<std::vector<Field::Element>> PartyProtocol::OpenInPhase(
    const Shares& a) {
  const size_t n = num_parties();
  obs::Span span("bgw.open", "mpc", static_cast<int32_t>(me_));
  span.AddArg("elements", static_cast<int64_t>(a.size()));
  for (size_t r = 0; r < n; ++r) {
    if (r != me_ && PartyDead(r)) continue;
    network_->Send(me_, r, a);
  }
  EndRound();

  // Collect whichever parties deliver and interpolate over the first t+1
  // of them. Without a tracker a failed receive fails the open, so all n
  // deliver and the basis is parties 0..t. With one, dead parties are
  // skipped; any t+1 shares of a consistent sharing agree on the value, so
  // every party — and the driver — opens the same plaintext regardless of
  // which subset delivered to it.
  std::vector<std::vector<Field::Element>> all(n);
  std::vector<size_t> survivors;
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
    if (received.ValueOrDie().size() != a.size()) {
      if (recovery_mode_) {
        // Same lost-frame skew as in Mul: consume the stray frame to
        // realign with party j's send stream and count j undelivered,
        // which fails the full-quorum check below.
        continue;
      }
      return Status::IntegrityViolation(
          "opened broadcast from party " + std::to_string(j) + " has " +
          std::to_string(received.ValueOrDie().size()) +
          " elements, expected " + std::to_string(a.size()));
    }
    if (liveness_ != nullptr) liveness_->RecordSuccess(j);
    all[j] = std::move(received).ValueOrDie();
    survivors.push_back(j);
  }
  if (recovery_mode_ && survivors.size() != expected) {
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
        std::to_string(survivors.size()) + "/" + std::to_string(expected) +
        " non-dead parties delivered; failing for a resume barrier");
  }
  if (survivors.empty()) {
    return Status::Unavailable("open impossible: no broadcast delivered");
  }
  return scheme_.ReconstructBatchFromSurvivors(all, survivors,
                                               scheme_.threshold());
}

Result<PartyProtocol::Shares> PartyProtocol::MulBeaver(const Shares& a,
                                                       const Shares& b) {
  const size_t k = a.size();
  PhaseScope phase(network_, "mul");
  obs::Span span("bgw.mul", "mpc", static_cast<int32_t>(me_));
  span.AddArg("elements", static_cast<int64_t>(k));
  span.AddArg("beaver", 1);

  BeaverTriplePool::TripleBatch triples;
  SQM_ASSIGN_OR_RETURN(triples, beaver_pool_->Take(k));
  beaver_triples_used_ += k;
  const std::vector<Field::Element>& ta = triples.a.shares(me_);
  const std::vector<Field::Element>& tb = triples.b.shares(me_);
  const std::vector<Field::Element>& tc = triples.c.shares(me_);

  // One round: jointly open [x - a | y - b], packed so the batch costs a
  // single broadcast tagged to the "mul" phase. The opened values are
  // public, so even on the quorum path any t+1 survivor shares agree and
  // no census round is needed — this is where Beaver halves the per-Mul
  // round count relative to GRR's sub-share + census exchanges.
  Shares packed(2 * k);
  Field::SubVec(a.data(), ta.data(), packed.data(), k);
  Field::SubVec(b.data(), tb.data(), packed.data() + k, k);
  SQM_ASSIGN_OR_RETURN(const std::vector<Field::Element> opened,
                       OpenInPhase(packed));

  // [xy] = [c] + d*[b] + e*[a] + d*e, accumulated in the same order as the
  // driver's combine so releases are bit-identical across execution modes.
  const Field::Element* d = opened.data();
  const Field::Element* e = opened.data() + k;
  Shares out = tc;
  std::vector<Field::Element> term(k);
  Field::MulVec(d, tb.data(), term.data(), k);
  Field::AddVec(out.data(), term.data(), out.data(), k);
  Field::MulVec(e, ta.data(), term.data(), k);
  Field::AddVec(out.data(), term.data(), out.data(), k);
  Field::MulVec(d, e, term.data(), k);
  Field::AddVec(out.data(), term.data(), out.data(), k);
  return out;
}

Result<std::vector<int64_t>> PartyProtocol::OpenSigned(const Shares& a) {
  SQM_ASSIGN_OR_RETURN(const std::vector<Field::Element> opened, Open(a));
  return Field::DecodeVector(opened);
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

PartyEngine::PartyEngine(ShamirScheme scheme, Transport* network,
                         uint64_t seed, size_t me)
    : protocol_(std::move(scheme), network, seed, me) {}

Result<PartyProtocol::Shares> PartyEngine::EvaluateToShares(
    const Circuit& circuit, const std::vector<int64_t>& my_inputs,
    BgwCheckpoint* checkpoint) {
  const size_t n = protocol_.num_parties();
  const size_t me = protocol_.me();
  SQM_RETURN_NOT_OK(circuit.Validate(n));
  if (my_inputs.size() != circuit.NumInputsForParty(me)) {
    return Status::InvalidArgument(
        "party " + std::to_string(me) + " supplied " +
        std::to_string(my_inputs.size()) + " inputs, circuit expects " +
        std::to_string(circuit.NumInputsForParty(me)));
  }

  BgwCheckpoint scratch;
  BgwCheckpoint* ckpt = checkpoint != nullptr ? checkpoint : &scratch;
  const bool resuming = ckpt->valid;
  const auto& gates = circuit.gates();

  obs::Span evaluate("bgw.evaluate", "mpc", static_cast<int32_t>(me));
  evaluate.AddArg("gates", static_cast<int64_t>(gates.size()));
  evaluate.AddArg("resuming", resuming ? 1 : 0);

  std::vector<Field::Element>& shares = ckpt->wire_shares;
  if (!resuming) {
    ckpt->next_level = 0;
    ckpt->mul_rounds_done = 0;
    shares.assign(gates.size(), 0);

    // Phase 1: one sharing round per contributing dealer, in party order —
    // the same schedule as the driver, with every other dealer's input
    // count read from the public circuit structure.
    for (size_t j = 0; j < n; ++j) {
      const size_t count = circuit.NumInputsForParty(j);
      if (count == 0) continue;
      std::vector<Field::Element> encoded;
      if (j == me) encoded = Field::EncodeVector(my_inputs);
      SQM_ASSIGN_OR_RETURN(
          const PartyProtocol::Shares shared,
          protocol_.ShareFromParty(j, encoded, count));
      for (size_t w = 0; w < gates.size(); ++w) {
        const Circuit::Gate& gate = gates[w];
        if (gate.kind == Circuit::GateKind::kInput && gate.owner() == j) {
          shares[w] = shared[gate.input_index()];
        }
      }
    }
    ckpt->valid = true;
    if (checkpoint_sink_) checkpoint_sink_(*ckpt);
  } else if (!protocol_.recovery_mode()) {
    // In recovery mode the resume barrier already flushed the failed
    // level's in-flight state, and a fast peer may ALREADY have dealt
    // fresh sub-shares for the redo level — draining there would eat them.
    protocol_.DrainPending();
  }

  // Phase 2: the driver's level loop on a one-row table, so depth
  // assignment and wire order — and hence the message pattern — match.
  const auto mul = [&](size_t level, const std::vector<Circuit::WireId>& wires)
      -> Status {
    if (mul_level_hook_) mul_level_hook_(level);
    PartyProtocol::Shares lhs(wires.size());
    PartyProtocol::Shares rhs(wires.size());
    for (size_t i = 0; i < wires.size(); ++i) {
      lhs[i] = shares[gates[wires[i]].lhs];
      rhs[i] = shares[gates[wires[i]].rhs];
    }
    SQM_ASSIGN_OR_RETURN(const PartyProtocol::Shares products,
                         protocol_.Mul(std::move(lhs), std::move(rhs)));
    for (size_t i = 0; i < wires.size(); ++i) shares[wires[i]] = products[i];
    return Status::OK();
  };
  SQM_RETURN_NOT_OK(EvaluateLevels(circuit, 1, ckpt, mul, checkpoint_sink_));

  PartyProtocol::Shares out(circuit.outputs().size());
  for (size_t i = 0; i < circuit.outputs().size(); ++i) {
    out[i] = shares[circuit.outputs()[i]];
  }
  return out;
}

Result<std::vector<int64_t>> PartyEngine::OpenOutputs(
    const PartyProtocol::Shares& out_shares) {
  return protocol_.OpenSigned(out_shares);
}

}  // namespace sqm
