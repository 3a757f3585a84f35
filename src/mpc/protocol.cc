#include "mpc/protocol.h"

#include <algorithm>
#include <numeric>

#include "core/logging.h"
#include "mpc/beaver.h"
#include "obs/trace.h"

namespace sqm {

BgwProtocol::BgwProtocol(ShamirScheme scheme, Transport* network,
                         uint64_t seed)
    : scheme_(std::move(scheme)), network_(network) {
  SQM_CHECK(network_ != nullptr);
  SQM_CHECK(network_->num_parties() == scheme_.num_parties());
  Rng root(seed);
  party_rngs_.reserve(scheme_.num_parties());
  for (size_t j = 0; j < scheme_.num_parties(); ++j) {
    party_rngs_.push_back(root.Split(j));
  }
  std::vector<size_t> all(2 * scheme_.threshold() + 1);
  std::iota(all.begin(), all.end(), 0);
  degree2t_lagrange_ = scheme_.LagrangeAtZero(all);
}

Result<SharedVector> BgwProtocol::ShareFromParty(
    size_t party, const std::vector<Field::Element>& values,
    const std::string& phase_label) {
  const size_t n = num_parties();
  SQM_CHECK(party < n);
  if (PartyDead(party)) {
    return Status::Unavailable("input sharing impossible: dealer party " +
                               std::to_string(party) + " is dead");
  }
  PhaseScope phase(network_, phase_label);
  // Pinned to the dealer's track: in driver mode one thread plays every
  // party, and the trace should still show who did the work.
  obs::Span span("bgw.share", "mpc", static_cast<int32_t>(party));
  span.AddArg("party", static_cast<int64_t>(party));
  span.AddArg("elements", static_cast<int64_t>(values.size()));
  // The owner deals every recipient's row in one table-driven batch, the
  // trailing noise inputs dealt and timed separately.
  std::vector<std::vector<Field::Element>> outbound =
      scheme_.ShareBatchWithTail(values,
                                 std::min(noise_inputs_, values.size()),
                                 party_rngs_[party],
                                 static_cast<int32_t>(party),
                                 &noise_deal_seconds_);
  for (size_t j = 0; j < n; ++j) {
    if (j != party && PartyDead(j)) continue;
    network_->Send(party, j, std::move(outbound[j]));
  }
  network_->EndRound();

  SharedVector result(n, values.size());
  for (size_t j = 0; j < n; ++j) {
    if (j != party && PartyDead(j)) continue;
    Result<Transport::Payload> received = network_->Receive(party, j);
    if (!received.ok()) {
      if (liveness_ != nullptr) {
        liveness_->RecordFailure(party, received.status().code());
      }
      // A lost input is not degradable: no quorum of other parties holds
      // the dealer's secret. Surface kUnavailable and let the caller
      // decide whether the run can proceed without this input.
      return Status::Unavailable(
          "input sharing from party " + std::to_string(party) +
          " failed (" + received.status().message() +
          "); inputs cannot be reconstructed by a quorum");
    }
    if (received.ValueOrDie().size() != values.size()) {
      return Status::IntegrityViolation(
          "input dealing from party " + std::to_string(party) + " to " +
          std::to_string(j) + " has " +
          std::to_string(received.ValueOrDie().size()) +
          " elements, expected " + std::to_string(values.size()));
    }
    result.shares(j) = std::move(received).ValueOrDie();
  }
  if (liveness_ != nullptr) liveness_->RecordSuccess(party);
  if (verify_sharings_) {
    SQM_RETURN_NOT_OK(VerifySharing(
        result, "input dealing from party " + std::to_string(party)));
  }
  return result;
}

SharedVector BgwProtocol::SharePublic(
    const std::vector<Field::Element>& values) const {
  // A public value is a degree-0 polynomial: every party's share equals the
  // value itself. Valid for Add/Mul since degree 0 <= t.
  SharedVector result(num_parties(), values.size());
  for (size_t j = 0; j < num_parties(); ++j) result.shares(j) = values;
  return result;
}

Result<SharedVector> BgwProtocol::Add(const SharedVector& a,
                                      const SharedVector& b) const {
  if (a.size() != b.size() || a.num_parties() != b.num_parties()) {
    return Status::InvalidArgument("Add: shape mismatch");
  }
  SharedVector out(a.num_parties(), a.size());
  for (size_t j = 0; j < a.num_parties(); ++j) {
    Field::AddVec(a.shares(j).data(), b.shares(j).data(),
                  out.shares(j).data(), a.size());
  }
  return out;
}

Result<SharedVector> BgwProtocol::Sub(const SharedVector& a,
                                      const SharedVector& b) const {
  if (a.size() != b.size() || a.num_parties() != b.num_parties()) {
    return Status::InvalidArgument("Sub: shape mismatch");
  }
  SharedVector out(a.num_parties(), a.size());
  for (size_t j = 0; j < a.num_parties(); ++j) {
    Field::SubVec(a.shares(j).data(), b.shares(j).data(),
                  out.shares(j).data(), a.size());
  }
  return out;
}

SharedVector BgwProtocol::ScaleConst(const SharedVector& a,
                                     Field::Element c) const {
  SharedVector out(a.num_parties(), a.size());
  for (size_t j = 0; j < a.num_parties(); ++j) {
    Field::ScaleVec(a.shares(j).data(), c, out.shares(j).data(), a.size());
  }
  return out;
}

Result<SharedVector> BgwProtocol::AddPublic(
    const SharedVector& a, const std::vector<Field::Element>& pub) const {
  if (a.size() != pub.size()) {
    return Status::InvalidArgument("AddPublic: shape mismatch");
  }
  // Adding a public constant to a degree-t sharing adds it to the free
  // coefficient: every party adds the constant to its share.
  SharedVector out(a.num_parties(), a.size());
  for (size_t j = 0; j < a.num_parties(); ++j) {
    Field::AddVec(a.shares(j).data(), pub.data(), out.shares(j).data(),
                  a.size());
  }
  return out;
}

Result<SharedVector> BgwProtocol::Mul(SharedVector a, SharedVector b) {
  if (a.size() != b.size() || a.num_parties() != b.num_parties()) {
    return Status::InvalidArgument("Mul: shape mismatch");
  }
  if (beaver_pool_ != nullptr) return MulBeaver(a, b);
  const size_t n = num_parties();
  const size_t k = a.size();
  const size_t needed = 2 * scheme_.threshold() + 1;
  PhaseScope phase(network_, "mul");
  obs::Span span("bgw.mul", "mpc");
  span.AddArg("elements", static_cast<int64_t>(k));

  // Step 1 (local): each party multiplies its shares in place in `a` (and
  // frees its row of `b`), yielding a degree-2t sharing of the product.
  // Step 2 (re-share): each party deals a fresh degree-t sharing of its
  // degree-2t share batch and distributes the sub-shares — one message per
  // pair carrying all k elements. Dead parties neither compute nor send
  // (their RNG streams are independent, so skipping them leaves the
  // survivors' randomness — and hence the recombined free coefficients —
  // untouched), and nobody sends to them.
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    obs::Span deal("bgw.mul.deal", "mpc", static_cast<int32_t>(j));
    deal.AddArg("party", static_cast<int64_t>(j));
    std::vector<Field::Element>& products = a.shares(j);
    Field::MulVec(products.data(), b.shares(j).data(), products.data(), k);
    std::vector<Field::Element>().swap(b.shares(j));
    std::vector<std::vector<Field::Element>> outbound =
        scheme_.ShareBatch(products, party_rngs_[j]);
    for (size_t r = 0; r < n; ++r) {
      if (r != j && PartyDead(r)) continue;
      network_->Send(j, r, std::move(outbound[r]));
    }
  }
  network_->EndRound();

  // Collection, dealer-outer: a dealer is usable only if EVERY alive
  // recipient received its sub-share vector — all parties must recombine
  // with the same dealer set and weights or the result is not a consistent
  // degree-t sharing. Only the first 2t+1 usable dealers' rows are kept;
  // the rest are received and dropped at once, as in the standard
  // description.
  std::vector<size_t> dealers;
  std::vector<std::vector<std::vector<Field::Element>>> rows;
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    const bool keep = dealers.size() < needed;
    std::vector<std::vector<Field::Element>> dealer_rows(keep ? n : 0);
    bool dealer_ok = true;
    for (size_t r = 0; r < n; ++r) {
      if (r != j && PartyDead(r)) continue;
      Result<Transport::Payload> received = network_->Receive(j, r);
      if (!received.ok()) {
        // Without a tracker a failed receive (timed-out retries, crashed
        // dealer) fails the multiplication — the caller decides how to
        // recover; with one, the dealer is dropped.
        if (liveness_ == nullptr) return received.status();
        liveness_->RecordFailure(j, received.status().code());
        if (obs::Enabled()) {
          obs::TraceEvent event;
          event.name = "bgw.mul.dealer_failed";
          event.category = "mpc";
          event.AddArg("dealer", static_cast<int64_t>(j));
          event.AddArg("recipient", static_cast<int64_t>(r));
          obs::Tracer::Global().Instant(event);
        }
        dealer_ok = false;
        break;
      }
      if (received.ValueOrDie().size() != k) {
        // A wrong-length sub-share batch means the channel is desynced —
        // a replayed or stale message — and must never be recombined.
        return Status::IntegrityViolation(
            "Mul sub-share batch from dealer " + std::to_string(j) +
            " to party " + std::to_string(r) + " has " +
            std::to_string(received.ValueOrDie().size()) +
            " elements, expected " + std::to_string(k) +
            " (replayed or stale message)");
      }
      if (keep) dealer_rows[r] = std::move(received).ValueOrDie();
    }
    if (!dealer_ok) continue;
    if (liveness_ != nullptr) liveness_->RecordSuccess(j);
    if (keep) {
      dealers.push_back(j);
      rows.push_back(std::move(dealer_rows));
    }
  }
  if (dealers.size() < needed) {
    return Status::Unavailable(
        "Mul quorum shortfall: degree-2t recombination needs 2t+1 = " +
        std::to_string(needed) + " dealers, only " +
        std::to_string(dealers.size()) + " of " + std::to_string(n) +
        " delivered (dead: " + std::to_string(liveness_->num_dead()) + ")");
  }

  // Step 3 (local): recombine into `a`'s rows (dead parties' are zeroed)
  // with the Lagrange weights for exactly those dealers' evaluation points.
  // Any 2t+1 of them yield the same free coefficient, so degraded outputs
  // equal the no-crash outputs.
  const std::vector<Field::Element> weights =
      dealers.back() + 1 == needed ? degree2t_lagrange_
                                   : scheme_.LagrangeAtZero(dealers);
  std::vector<const Field::Element*> sub_shares(needed);
  for (size_t r = 0; r < n; ++r) {
    std::vector<Field::Element>& out = a.shares(r);
    if (PartyDead(r)) {
      std::fill(out.begin(), out.end(), 0);
      continue;
    }
    obs::Span recombine("bgw.mul.recombine", "mpc", static_cast<int32_t>(r));
    recombine.AddArg("party", static_cast<int64_t>(r));
    for (size_t d = 0; d < needed; ++d) sub_shares[d] = rows[d][r].data();
    Field::LinearCombination(sub_shares.data(), weights.data(), needed,
                             out.data(), k);
  }
  if (verify_sharings_) {
    SQM_RETURN_NOT_OK(VerifySharing(a, "Mul output"));
  }
  return a;
}

SharedVector BgwProtocol::SumElements(const SharedVector& a) const {
  SharedVector out(a.num_parties(), 1);
  for (size_t j = 0; j < a.num_parties(); ++j) {
    Field::Element acc = 0;
    for (Field::Element s : a.shares(j)) acc = Field::Add(acc, s);
    out.shares(j)[0] = acc;
  }
  return out;
}

Result<SharedVector> BgwProtocol::InnerProduct(const SharedVector& a,
                                               const SharedVector& b) {
  SQM_ASSIGN_OR_RETURN(SharedVector products, Mul(a, b));
  return SumElements(products);
}

Result<std::vector<Field::Element>> BgwProtocol::Open(const SharedVector& a) {
  PhaseScope phase(network_, "open");
  return OpenInPhase(a);
}

Result<std::vector<int64_t>> BgwProtocol::OpenSigned(const SharedVector& a) {
  SQM_ASSIGN_OR_RETURN(const std::vector<Field::Element> opened, Open(a));
  return Field::DecodeVector(opened);
}

Result<std::vector<Field::Element>> BgwProtocol::OpenInPhase(
    const SharedVector& a) {
  const size_t n = num_parties();
  const size_t k = a.size();
  obs::Span span("bgw.open", "mpc");
  span.AddArg("elements", static_cast<int64_t>(k));
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    obs::Span broadcast("bgw.open.broadcast", "mpc", static_cast<int32_t>(j));
    broadcast.AddArg("party", static_cast<int64_t>(j));
    for (size_t r = 0; r < n; ++r) {
      if (r != j && PartyDead(r)) continue;
      network_->Send(j, r, a.shares(j));
    }
  }
  network_->EndRound();

  // Collect every alive recipient's copy of every broadcast. A broadcaster
  // sends the SAME vector to every recipient, so the first copy serves as
  // everyone's view; equivocation — different shares to different
  // recipients — is visible only across copies, so under verify_sharings
  // each copy must equal the first. With a tracker a failed receive drops
  // the broadcaster, which stays correct even when a party dies in the
  // middle of this very round.
  std::vector<std::vector<Field::Element>> view(n);
  std::vector<size_t> survivors;
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    bool broadcaster_ok = true;
    size_t first = n;  // The recipient whose copy is view[j].
    for (size_t r = 0; r < n; ++r) {
      if (r != j && PartyDead(r)) continue;
      Result<Transport::Payload> received = network_->Receive(j, r);
      if (!received.ok()) {
        if (liveness_ == nullptr) return received.status();
        liveness_->RecordFailure(j, received.status().code());
        broadcaster_ok = false;
        break;
      }
      if (received.ValueOrDie().size() != k) {
        return Status::IntegrityViolation(
            "opened broadcast from party " + std::to_string(j) + " to " +
            std::to_string(r) + " has " +
            std::to_string(received.ValueOrDie().size()) +
            " elements, expected " + std::to_string(k));
      }
      if (first == n) {
        view[j] = std::move(received).ValueOrDie();
        first = r;
      } else if (verify_sharings_ && received.ValueOrDie() != view[j]) {
        return Status::IntegrityViolation(
            "equivocation: party " + std::to_string(j) +
            " broadcast different share vectors to recipients " +
            std::to_string(first) + " and " + std::to_string(r));
      }
    }
    if (!broadcaster_ok) continue;
    if (liveness_ != nullptr) liveness_->RecordSuccess(j);
    survivors.push_back(j);
  }

  if (verify_sharings_) {
    std::vector<Field::Element> shares(n);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j : survivors) shares[j] = view[j][i];
      const Status status = scheme_.CheckConsistentSharing(
          shares, survivors, scheme_.threshold());
      if (!status.ok()) {
        return Status(status.code(), "open, element " + std::to_string(i) +
                                         ": " + status.message());
      }
    }
  }
  // One table-driven recombination sweep over the survivors instead of k
  // scalar interpolations.
  return scheme_.ReconstructBatchFromSurvivors(view, survivors,
                                               scheme_.threshold());
}

Result<SharedVector> BgwProtocol::MulBeaver(const SharedVector& a,
                                            const SharedVector& b) {
  const size_t n = num_parties();
  const size_t k = a.size();
  PhaseScope phase(network_, "mul");
  obs::Span span("bgw.mul", "mpc");
  span.AddArg("elements", static_cast<int64_t>(k));
  span.AddArg("beaver", 1);

  BeaverTriplePool::TripleBatch triples;
  SQM_ASSIGN_OR_RETURN(triples, beaver_pool_->Take(k));
  beaver_triples_used_ += k;

  // Local masking: pack d = x - a and e = y - b into one 2k-element shared
  // vector so the whole Mul costs exactly one opening round.
  SharedVector packed(n, 2 * k);
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    auto& dst = packed.shares(j);
    Field::SubVec(a.shares(j).data(), triples.a.shares(j).data(),
                  dst.data(), k);
    Field::SubVec(b.shares(j).data(), triples.b.shares(j).data(),
                  dst.data() + k, k);
  }
  // With a tracker this is a quorum opening, but with no census round: the
  // opened values are PUBLIC, so any threshold+1 survivor shares of a
  // consistent sharing agree — survivor-set agreement across parties is
  // unnecessary. This is why the Beaver online path costs one round where
  // quorum GRR costs two.
  SQM_ASSIGN_OR_RETURN(const std::vector<Field::Element> opened,
                       OpenInPhase(packed));

  // Local combination [xy] = [c] + d*[b] + e*[a] + d*e.
  const Field::Element* d = opened.data();
  const Field::Element* e = opened.data() + k;
  std::vector<Field::Element> de(k);
  Field::MulVec(d, e, de.data(), k);
  std::vector<Field::Element> term(k);
  SharedVector out(n, k);
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    auto& dst = out.shares(j);
    dst = triples.c.shares(j);
    Field::MulVec(d, triples.b.shares(j).data(), term.data(), k);
    Field::AddVec(dst.data(), term.data(), dst.data(), k);
    Field::MulVec(e, triples.a.shares(j).data(), term.data(), k);
    Field::AddVec(dst.data(), term.data(), dst.data(), k);
    Field::AddVec(dst.data(), de.data(), dst.data(), k);
  }
  if (verify_sharings_) {
    SQM_RETURN_NOT_OK(VerifySharing(out, "Beaver Mul output"));
  }
  return out;
}

Status BgwProtocol::VerifySharing(const SharedVector& a,
                                  const std::string& where) const {
  const size_t n = num_parties();
  std::vector<size_t> usable;
  usable.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    if (!PartyDead(j)) usable.push_back(j);
  }
  std::vector<Field::Element> shares(n);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < n; ++j) shares[j] = a.shares(j)[i];
    const Status status =
        scheme_.CheckConsistentSharing(shares, usable, scheme_.threshold());
    if (!status.ok()) {
      return Status(status.code(), where + ", element " + std::to_string(i) +
                                       ": " + status.message());
    }
  }
  return Status::OK();
}

size_t BgwProtocol::DrainPending() {
  const size_t n = num_parties();
  size_t drained = 0;
  for (size_t j = 0; j < n; ++j) {
    for (size_t r = 0; r < n; ++r) {
      while (network_->HasPending(j, r)) {
        Result<Transport::Payload> stale = network_->Receive(j, r);
        if (!stale.ok()) break;
        ++drained;
      }
    }
  }
  return drained;
}

}  // namespace sqm
