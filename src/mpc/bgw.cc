#include "mpc/bgw.h"

#include "obs/trace.h"

namespace sqm {

BgwEngine::BgwEngine(ShamirScheme scheme, Transport* network,
                     uint64_t seed)
    : protocol_(std::move(scheme), network, seed) {}

Result<std::vector<int64_t>> BgwEngine::Evaluate(
    const Circuit& circuit,
    const std::vector<std::vector<int64_t>>& inputs_per_party) {
  SQM_ASSIGN_OR_RETURN(SharedVector out_shares,
                       EvaluateToShares(circuit, inputs_per_party));
  return OpenOutputs(out_shares);
}

Result<SharedVector> BgwEngine::EvaluateToShares(
    const Circuit& circuit,
    const std::vector<std::vector<int64_t>>& inputs_per_party,
    BgwCheckpoint* checkpoint) {
  const size_t n = protocol_.num_parties();
  SQM_RETURN_NOT_OK(circuit.Validate(n));
  if (inputs_per_party.size() != n) {
    return Status::InvalidArgument("need one input vector per party");
  }
  for (size_t j = 0; j < n; ++j) {
    if (inputs_per_party[j].size() != circuit.NumInputsForParty(j)) {
      return Status::InvalidArgument(
          "party " + std::to_string(j) + " supplied " +
          std::to_string(inputs_per_party[j].size()) + " inputs, circuit expects " +
          std::to_string(circuit.NumInputsForParty(j)));
    }
  }

  BgwCheckpoint scratch;
  BgwCheckpoint* ckpt = checkpoint != nullptr ? checkpoint : &scratch;
  const bool resuming = ckpt->valid;
  const auto& gates = circuit.gates();

  obs::Span evaluate("bgw.evaluate", "mpc");
  evaluate.AddArg("gates", static_cast<int64_t>(gates.size()));
  evaluate.AddArg("resuming", resuming ? 1 : 0);
  if (resuming && obs::Enabled()) {
    obs::TraceEvent event;
    event.name = "bgw.checkpoint_resume";
    event.category = "mpc";
    event.AddArg("next_level", static_cast<int64_t>(ckpt->next_level));
    event.AddArg("mul_rounds_done",
                 static_cast<int64_t>(ckpt->mul_rounds_done));
    obs::Tracer::Global().Instant(event);
  }

  std::vector<Field::Element>& table = ckpt->wire_shares;
  auto shares = [&](size_t wire) { return &table[wire * n]; };
  if (!resuming) {
    ckpt->next_level = 0;
    ckpt->mul_rounds_done = 0;
    // The wire-major share table lives inside the checkpoint: each
    // completed level's results are persisted in place, no copies.
    table.assign(gates.size() * n, 0);

    // ---- Phase 1: input sharing (one protocol round per contributing
    // party; each party's inputs are batched into a single message per
    // recipient). Crashed parties' input shares survive among the live
    // parties, so a later resume never repeats this phase.
    std::vector<SharedVector> dealt(n);
    for (size_t j = 0; j < n; ++j) {
      if (inputs_per_party[j].empty()) continue;
      SQM_ASSIGN_OR_RETURN(
          dealt[j],
          protocol_.ShareFromParty(j,
                                   Field::EncodeVector(inputs_per_party[j])));
    }
    // Scatter every party's input shares onto its input wires in one pass.
    for (size_t w = 0; w < gates.size(); ++w) {
      const Circuit::Gate& gate = gates[w];
      if (gate.kind != Circuit::GateKind::kInput) continue;
      for (size_t r = 0; r < n; ++r) {
        shares(w)[r] = dealt[gate.owner()].shares(r)[gate.input_index()];
      }
    }
    ckpt->valid = true;
  } else {
    // Stale sub-shares queued by the aborted round must not mix into the
    // retry's fresh resharing randomness.
    protocol_.DrainPending();
  }

  // ---- Phase 2: the shared level loop. A level's products are gathered
  // copies of the table, so a failed Mul leaves the table at the previous
  // level and ckpt->next_level == level: exactly where a retry resumes.
  const auto mul = [&](size_t, const std::vector<Circuit::WireId>& wires)
      -> Status {
    SharedVector lhs(n, wires.size());
    SharedVector rhs(n, wires.size());
    for (size_t i = 0; i < wires.size(); ++i) {
      const Field::Element* l = shares(gates[wires[i]].lhs);
      const Field::Element* r = shares(gates[wires[i]].rhs);
      for (size_t p = 0; p < n; ++p) {
        lhs.shares(p)[i] = l[p];
        rhs.shares(p)[i] = r[p];
      }
    }
    SQM_ASSIGN_OR_RETURN(const SharedVector products,
                         protocol_.Mul(std::move(lhs), std::move(rhs)));
    for (size_t i = 0; i < wires.size(); ++i) {
      Field::Element* out = shares(wires[i]);
      for (size_t p = 0; p < n; ++p) out[p] = products.shares(p)[i];
    }
    return Status::OK();
  };
  SQM_RETURN_NOT_OK(EvaluateLevels(circuit, n, ckpt, mul, nullptr));

  SharedVector out_shares(n, circuit.outputs().size());
  for (size_t i = 0; i < circuit.outputs().size(); ++i) {
    const Field::Element* wire = shares(circuit.outputs()[i]);
    for (size_t r = 0; r < n; ++r) out_shares.shares(r)[i] = wire[r];
  }
  last_report_.multiplications = circuit.num_multiplications();
  last_report_.mul_rounds = ckpt->mul_rounds_done;
  return out_shares;
}

Result<std::vector<int64_t>> BgwEngine::OpenOutputs(
    const SharedVector& out_shares) {
  // ---- Phase 3: open outputs.
  return protocol_.OpenSigned(out_shares);
}

}  // namespace sqm
