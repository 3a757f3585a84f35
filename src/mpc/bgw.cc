#include "mpc/bgw.h"

#include <algorithm>

#include "core/logging.h"
#include "obs/trace.h"

namespace sqm {

BgwEngine::BgwEngine(ShamirScheme scheme, Transport* network, uint64_t seed)
    : scheme_(std::move(scheme)), network_(network), first_(0) {
  // One pass over the root: party j's stream is root.Split(j), taken in
  // party order — the streams PartyProtocol::DeriveStream replays.
  Rng root(seed);
  parties_.reserve(num_parties());
  for (size_t j = 0; j < num_parties(); ++j) {
    parties_.emplace_back(scheme_, network_, root.Split(j), j);
  }
}

BgwEngine::BgwEngine(ShamirScheme scheme, Transport* network, uint64_t seed,
                     size_t me)
    : scheme_(std::move(scheme)), network_(network), first_(me) {
  parties_.emplace_back(scheme_, network_,
                        PartyProtocol::DeriveStream(seed, me), me);
}

int32_t BgwEngine::Track() const {
  return hosts_all() ? obs::Tracer::CurrentTrack()
                     : static_cast<int32_t>(first_);
}

void BgwEngine::set_liveness(LivenessTracker* tracker) {
  liveness_ = tracker;
  for (PartyProtocol& party : parties_) party.set_liveness(tracker);
}

void BgwEngine::set_noise_inputs(size_t count) {
  for (PartyProtocol& party : parties_) party.set_noise_inputs(count);
}

double BgwEngine::noise_deal_seconds() const {
  double seconds = 0.0;
  for (const PartyProtocol& party : parties_) {
    seconds += party.noise_deal_seconds();
  }
  return seconds;
}

void BgwEngine::set_recovery_mode(bool on) {
  SQM_CHECK(!on || parties_.size() == 1);
  recovery_mode_ = on;
  for (PartyProtocol& party : parties_) party.set_recovery_mode(on);
}

size_t BgwEngine::DrainPending() {
  size_t drained = 0;
  for (PartyProtocol& party : parties_) drained += party.DrainPending();
  return drained;
}

Result<std::vector<int64_t>> BgwEngine::Evaluate(
    const Circuit& circuit, const std::vector<std::vector<int64_t>>& inputs) {
  SQM_ASSIGN_OR_RETURN(const SharedVector out_shares,
                       EvaluateToShares(circuit, inputs));
  return OpenOutputs(out_shares);
}

Result<SharedVector> BgwEngine::ShareFrom(
    size_t dealer, const std::vector<Field::Element>& values, size_t count) {
  SQM_CHECK(dealer < num_parties());
  if (Dead(dealer)) {
    return Status::Unavailable("input sharing impossible: dealer party " +
                               std::to_string(dealer) + " is dead");
  }
  PhaseScope phase(network_, "input");
  // In driver mode the span sits on the dealer's track, so the trace shows
  // who did the work; a hosted party keeps every dealing on its own.
  obs::Span span("bgw.share", "mpc",
                 hosts_all() ? static_cast<int32_t>(dealer) : Track());
  span.AddArg("party", static_cast<int64_t>(dealer));
  span.AddArg("elements", static_cast<int64_t>(count));
  if (Hosts(dealer)) {
    SQM_CHECK(values.size() == count);
    parties_[dealer - first_].DealInput(values);
  }
  network_->EndRound();

  SharedVector dealt(parties_.size(), count);
  for (size_t i = 0; i < parties_.size(); ++i) {
    if (first_ + i != dealer && Dead(first_ + i)) continue;
    SQM_ASSIGN_OR_RETURN(dealt.shares(i),
                         parties_[i].ReceiveInput(dealer, count));
  }
  if (Verifying()) {
    SQM_RETURN_NOT_OK(VerifySharing(
        dealt, "input dealing from party " + std::to_string(dealer)));
  }
  return dealt;
}

Status BgwEngine::Mul(SharedVector* a, SharedVector* b) {
  const size_t k = a->size();
  PhaseScope phase(network_, "mul");
  obs::Span span("bgw.mul", "mpc", Track());
  span.AddArg("elements", static_cast<int64_t>(k));
  if (liveness_ != nullptr) span.AddArg("quorum", 1);

  // Dead parties neither compute nor send: their streams are independent,
  // so skipping them leaves the survivors' randomness — and hence the
  // recombined free coefficients — untouched.
  for (size_t i = 0; i < parties_.size(); ++i) {
    const size_t p = first_ + i;
    if (Dead(p)) continue;
    obs::Span deal("bgw.mul.deal", "mpc", static_cast<int32_t>(p));
    deal.AddArg("party", static_cast<int64_t>(p));
    parties_[i].MulDeal(&a->shares(i), &b->shares(i));
  }
  network_->EndRound();
  for (size_t i = 0; i < parties_.size(); ++i) {
    if (Dead(first_ + i)) continue;
    SQM_RETURN_NOT_OK(parties_[i].MulCollect(k));
  }
  if (liveness_ != nullptr) {
    PhaseScope census(network_, "census");
    for (size_t i = 0; i < parties_.size(); ++i) {
      if (!Dead(first_ + i)) parties_[i].CensusSend();
    }
    network_->EndRound();
    for (size_t i = 0; i < parties_.size(); ++i) {
      if (Dead(first_ + i)) continue;
      SQM_RETURN_NOT_OK(parties_[i].CensusTally());
    }
  }
  for (size_t i = 0; i < parties_.size(); ++i) {
    const size_t p = first_ + i;
    std::vector<Field::Element>& row = a->shares(i);
    if (Dead(p)) {
      std::fill(row.begin(), row.end(), 0);
      continue;
    }
    obs::Span recombine("bgw.mul.recombine", "mpc", static_cast<int32_t>(p));
    recombine.AddArg("party", static_cast<int64_t>(p));
    SQM_RETURN_NOT_OK(parties_[i].Recombine(&row));
  }
  if (Verifying()) {
    SQM_RETURN_NOT_OK(VerifySharing(*a, "Mul output"));
  }
  return Status::OK();
}

Result<SharedVector> BgwEngine::EvaluateToShares(
    const Circuit& circuit, const std::vector<std::vector<int64_t>>& inputs,
    BgwCheckpoint* checkpoint) {
  const size_t n = num_parties();
  const size_t rows = parties_.size();
  SQM_RETURN_NOT_OK(circuit.Validate(n));
  if (inputs.size() != rows) {
    return Status::InvalidArgument("need one input vector per hosted party");
  }
  for (size_t i = 0; i < rows; ++i) {
    const size_t expected = circuit.NumInputsForParty(first_ + i);
    if (inputs[i].size() != expected) {
      return Status::InvalidArgument(
          "party " + std::to_string(first_ + i) + " supplied " +
          std::to_string(inputs[i].size()) + " inputs, circuit expects " +
          std::to_string(expected));
    }
  }

  BgwCheckpoint scratch;
  BgwCheckpoint* ckpt = checkpoint != nullptr ? checkpoint : &scratch;
  const bool resuming = ckpt->valid;
  const auto& gates = circuit.gates();

  obs::Span evaluate("bgw.evaluate", "mpc", Track());
  evaluate.AddArg("gates", static_cast<int64_t>(gates.size()));
  evaluate.AddArg("resuming", resuming ? 1 : 0);
  if (resuming) {
    obs::Tracer::Global().Instant(
        "bgw.checkpoint_resume", "mpc",
        {{"next_level", static_cast<int64_t>(ckpt->next_level)},
         {"mul_rounds_done", static_cast<int64_t>(ckpt->mul_rounds_done)}});
  }

  std::vector<Field::Element>& table = ckpt->wire_shares;
  auto shares = [&](size_t wire) { return &table[wire * rows]; };
  if (!resuming) {
    ckpt->next_level = 0;
    ckpt->mul_rounds_done = 0;
    // The wire-major share table lives inside the checkpoint: each
    // completed level's results are persisted in place, no copies.
    table.assign(gates.size() * rows, 0);

    // ---- Phase 1: one dealing round per contributing party, in party
    // order, each party's inputs batched into a single message per
    // recipient. Crashed parties' input shares survive among the live
    // parties, so a later resume never repeats this phase.
    std::vector<SharedVector> dealt(n);
    for (size_t j = 0; j < n; ++j) {
      const size_t count = circuit.NumInputsForParty(j);
      if (count == 0) continue;
      std::vector<Field::Element> encoded;
      if (Hosts(j)) encoded = Field::EncodeVector(inputs[j - first_]);
      SQM_ASSIGN_OR_RETURN(dealt[j], ShareFrom(j, encoded, count));
    }
    for (size_t w = 0; w < gates.size(); ++w) {
      const Circuit::Gate& gate = gates[w];
      if (gate.kind != Circuit::GateKind::kInput) continue;
      for (size_t r = 0; r < rows; ++r) {
        shares(w)[r] = dealt[gate.owner()].shares(r)[gate.input_index()];
      }
    }
    ckpt->valid = true;
    if (checkpoint_sink_) checkpoint_sink_(*ckpt);
  } else if (!recovery_mode_) {
    // Stale sub-shares of the aborted round must not mix into the retry.
    // In recovery mode the resume barrier already flushed them, and a fast
    // peer may ALREADY have dealt the redo level — draining would eat it.
    DrainPending();
  }

  // ---- Phase 2: the level loop. A level's products are gathered copies
  // of the table, so a failed Mul leaves the table at the previous level
  // and ckpt->next_level == level: exactly where a retry resumes.
  const auto mul = [&](size_t level, const std::vector<Circuit::WireId>& wires)
      -> Status {
    if (mul_level_hook_) mul_level_hook_(level);
    SharedVector lhs(rows, wires.size());
    SharedVector rhs(rows, wires.size());
    for (size_t i = 0; i < wires.size(); ++i) {
      const Field::Element* l = shares(gates[wires[i]].lhs);
      const Field::Element* r = shares(gates[wires[i]].rhs);
      for (size_t p = 0; p < rows; ++p) {
        lhs.shares(p)[i] = l[p];
        rhs.shares(p)[i] = r[p];
      }
    }
    SQM_RETURN_NOT_OK(Mul(&lhs, &rhs));
    for (size_t i = 0; i < wires.size(); ++i) {
      Field::Element* out = shares(wires[i]);
      for (size_t p = 0; p < rows; ++p) out[p] = lhs.shares(p)[i];
    }
    return Status::OK();
  };
  SQM_RETURN_NOT_OK(EvaluateLevels(circuit, rows, ckpt, mul, checkpoint_sink_));

  SharedVector out_shares(rows, circuit.outputs().size());
  for (size_t i = 0; i < circuit.outputs().size(); ++i) {
    const Field::Element* wire = shares(circuit.outputs()[i]);
    for (size_t r = 0; r < rows; ++r) out_shares.shares(r)[i] = wire[r];
  }
  last_report_.multiplications = circuit.num_multiplications();
  last_report_.mul_rounds = ckpt->mul_rounds_done;
  return out_shares;
}

Result<std::vector<int64_t>> BgwEngine::OpenOutputs(
    const SharedVector& out_shares) {
  const size_t k = out_shares.size();
  PhaseScope phase(network_, "open");
  obs::Span span("bgw.open", "mpc", Track());
  span.AddArg("elements", static_cast<int64_t>(k));
  for (size_t i = 0; i < parties_.size(); ++i) {
    const size_t p = first_ + i;
    if (Dead(p)) continue;
    obs::Span broadcast("bgw.open.broadcast", "mpc", static_cast<int32_t>(p));
    broadcast.AddArg("party", static_cast<int64_t>(p));
    parties_[i].OpenSend(out_shares.shares(i));
  }
  network_->EndRound();

  // The release is the first hosted survivor's opening. Equivocation —
  // different shares to different recipients — is visible only across
  // copies: under verification each hosted copy must equal the first's.
  PartyProtocol::Opening release;
  size_t release_party = num_parties();
  for (size_t i = 0; i < parties_.size(); ++i) {
    const size_t p = first_ + i;
    if (Dead(p)) continue;
    SQM_ASSIGN_OR_RETURN(PartyProtocol::Opening opening,
                         parties_[i].OpenCollect(k));
    if (release_party == num_parties()) {
      release = std::move(opening);
      release_party = p;
      continue;
    }
    if (!Verifying()) continue;
    for (size_t j : opening.survivors) {
      if (!release.broadcasts[j].empty() &&
          opening.broadcasts[j] != release.broadcasts[j]) {
        return Status::IntegrityViolation(
            "equivocation: party " + std::to_string(j) +
            " broadcast different share vectors to recipients " +
            std::to_string(release_party) + " and " + std::to_string(p));
      }
    }
  }
  if (release_party == num_parties()) {
    return Status::Unavailable("open impossible: every hosted party is dead");
  }
  if (Verifying()) {
    std::vector<Field::Element> shares(num_parties());
    for (size_t i = 0; i < k; ++i) {
      for (size_t j : release.survivors) shares[j] = release.broadcasts[j][i];
      const Status status = scheme_.CheckConsistentSharing(
          shares, release.survivors, scheme_.threshold());
      if (!status.ok()) {
        return Status(status.code(), "open, element " + std::to_string(i) +
                                         ": " + status.message());
      }
    }
  }
  // One table-driven recombination sweep over the survivors instead of k
  // scalar interpolations.
  SQM_ASSIGN_OR_RETURN(
      const std::vector<Field::Element> opened,
      scheme_.ReconstructBatchFromSurvivors(
          release.broadcasts, release.survivors, scheme_.threshold()));
  return Field::DecodeVector(opened);
}

Status BgwEngine::VerifySharing(const SharedVector& a,
                                const std::string& where) const {
  const size_t n = num_parties();
  std::vector<size_t> usable;
  usable.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    if (!Dead(j)) usable.push_back(j);
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

}  // namespace sqm
