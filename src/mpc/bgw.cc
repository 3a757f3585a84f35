#include "mpc/bgw.h"

#include <algorithm>

#include "core/logging.h"
#include "obs/trace.h"

namespace sqm {

BgwEngine::BgwEngine(ShamirScheme scheme, Transport* network,
                     uint64_t seed)
    : protocol_(std::move(scheme), network, seed), network_(network) {}

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
    stats_before_ = network_->stats();
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
    SQM_CHECK(table.size() == gates.size() * n);
    // Stale sub-shares queued by the aborted round must not mix into the
    // retry's fresh resharing randomness.
    protocol_.DrainPending();
  }

  // ---- Phase 2: evaluate gate levels. Multiplications of equal depth are
  // batched into one communication round.
  const std::vector<uint32_t> depth = circuit.GateDepths();
  const size_t max_depth =
      depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end());

  auto process_local_gate = [&](size_t w) {
    const Circuit::Gate& gate = gates[w];
    switch (gate.kind) {
      case Circuit::GateKind::kConstant:
        // Public constant = degree-0 sharing: everyone holds the value.
        std::fill_n(shares(w), n, Field::Reduce(circuit.constant(gate)));
        break;
      case Circuit::GateKind::kAdd:
        Field::AddVec(shares(gate.lhs), shares(gate.rhs), shares(w), n);
        break;
      case Circuit::GateKind::kSub:
        Field::SubVec(shares(gate.lhs), shares(gate.rhs), shares(w), n);
        break;
      case Circuit::GateKind::kMulConst:
        Field::ScaleVec(shares(gate.lhs),
                        Field::Reduce(circuit.constant(gate)), shares(w), n);
        break;
      case Circuit::GateKind::kInput:
      case Circuit::GateKind::kMul:
        break;  // Inputs done in phase 1; muls handled per level.
    }
  };

  for (size_t level = ckpt->next_level; level <= max_depth; ++level) {
    if (level > 0) {
      // Batch all multiplications at this depth into one round.
      std::vector<size_t> mul_wires;
      for (size_t w = 0; w < gates.size(); ++w) {
        if (gates[w].kind == Circuit::GateKind::kMul && depth[w] == level) {
          mul_wires.push_back(w);
        }
      }
      if (!mul_wires.empty()) {
        SharedVector lhs(n, mul_wires.size());
        SharedVector rhs(n, mul_wires.size());
        for (size_t i = 0; i < mul_wires.size(); ++i) {
          const Field::Element* l = shares(gates[mul_wires[i]].lhs);
          const Field::Element* r = shares(gates[mul_wires[i]].rhs);
          for (size_t p = 0; p < n; ++p) {
            lhs.shares(p)[i] = l[p];
            rhs.shares(p)[i] = r[p];
          }
        }
        // The operands are gathered copies, so a failed Mul leaves the
        // table at the previous level and ckpt->next_level == level:
        // exactly where a retry must resume.
        SQM_ASSIGN_OR_RETURN(const SharedVector products,
                             protocol_.Mul(std::move(lhs), std::move(rhs)));
        for (size_t i = 0; i < mul_wires.size(); ++i) {
          Field::Element* out = shares(mul_wires[i]);
          for (size_t p = 0; p < n; ++p) out[p] = products.shares(p)[i];
        }
        ++ckpt->mul_rounds_done;
      }
    }
    // Local gates at this depth, in id order (intra-level dependencies
    // always point backwards).
    for (size_t w = 0; w < gates.size(); ++w) {
      if (gates[w].kind != Circuit::GateKind::kMul &&
          gates[w].kind != Circuit::GateKind::kInput && depth[w] == level) {
        process_local_gate(w);
      }
    }
    ckpt->next_level = level + 1;
  }

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
  SQM_ASSIGN_OR_RETURN(std::vector<int64_t> outputs,
                       protocol_.OpenSigned(out_shares));
  // The network delta spans everything since the fresh EvaluateToShares
  // start, including any failed attempts retried from a checkpoint — that
  // is the traffic the run actually cost.
  last_report_.network = network_->stats() - stats_before_;
  return outputs;
}

}  // namespace sqm
