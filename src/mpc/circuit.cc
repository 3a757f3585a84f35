#include "mpc/circuit.h"

#include <algorithm>
#include <sstream>

#include "core/logging.h"

namespace sqm {

Circuit::WireId Circuit::Push(Gate gate) {
  // Operands always precede their gate, so their depths are known; the
  // operand slots of kInput, kConstant (and kMulConst's rhs) are not wires.
  uint32_t depth = 0;
  switch (gate.kind) {
    case GateKind::kInput:
    case GateKind::kConstant:
      break;
    case GateKind::kAdd:
    case GateKind::kSub:
      depth = std::max(depth_[gate.lhs], depth_[gate.rhs]);
      break;
    case GateKind::kMulConst:
      depth = depth_[gate.lhs];
      break;
    case GateKind::kMul:
      depth = std::max(depth_[gate.lhs], depth_[gate.rhs]) + 1;
      break;
  }
  max_depth_ = std::max(max_depth_, depth);
  gates_.push_back(gate);
  depth_.push_back(depth);
  return static_cast<WireId>(gates_.size() - 1);
}

void Circuit::Reserve(size_t num_gates, size_t num_constants) {
  gates_.reserve(num_gates);
  depth_.reserve(num_gates);
  constants_.reserve(num_constants);
}

Circuit::WireId Circuit::AddInput(size_t party) {
  SQM_CHECK(party < UINT32_MAX);
  if (party >= inputs_per_party_.size()) inputs_per_party_.resize(party + 1);
  Gate gate{};
  gate.kind = GateKind::kInput;
  gate.lhs = static_cast<WireId>(party);
  gate.rhs = static_cast<WireId>(inputs_per_party_[party]++);
  return Push(gate);
}

Circuit::WireId Circuit::AddConstant(Field::Element value) {
  Gate gate{};
  gate.kind = GateKind::kConstant;
  gate.lhs = static_cast<WireId>(constants_.size());
  constants_.push_back(value);
  return Push(gate);
}

Circuit::WireId Circuit::AddAdd(WireId lhs, WireId rhs) {
  SQM_CHECK(lhs < gates_.size() && rhs < gates_.size());
  Gate gate{};
  gate.kind = GateKind::kAdd;
  gate.lhs = lhs;
  gate.rhs = rhs;
  return Push(gate);
}

Circuit::WireId Circuit::AddSub(WireId lhs, WireId rhs) {
  SQM_CHECK(lhs < gates_.size() && rhs < gates_.size());
  Gate gate{};
  gate.kind = GateKind::kSub;
  gate.lhs = lhs;
  gate.rhs = rhs;
  return Push(gate);
}

Circuit::WireId Circuit::AddMulConst(WireId lhs, Field::Element constant) {
  SQM_CHECK(lhs < gates_.size());
  Gate gate{};
  gate.kind = GateKind::kMulConst;
  gate.lhs = lhs;
  gate.rhs = static_cast<WireId>(constants_.size());
  constants_.push_back(constant);
  return Push(gate);
}

Circuit::WireId Circuit::AddMul(WireId lhs, WireId rhs) {
  SQM_CHECK(lhs < gates_.size() && rhs < gates_.size());
  Gate gate{};
  gate.kind = GateKind::kMul;
  gate.lhs = lhs;
  gate.rhs = rhs;
  ++num_mul_;
  return Push(gate);
}

void Circuit::MarkOutput(WireId wire) {
  SQM_CHECK(wire < gates_.size());
  outputs_.push_back(wire);
}

Status Circuit::Validate(size_t num_parties) const {
  // The builders already check that every operand and output names an
  // earlier wire; only the party count is unknown until evaluation.
  if (inputs_per_party_.size() > num_parties) {
    return Status::InvalidArgument(
        "input gate owned by out-of-range party " +
        std::to_string(inputs_per_party_.size() - 1));
  }
  if (outputs_.empty()) {
    return Status::InvalidArgument("circuit has no outputs");
  }
  return Status::OK();
}

std::string Circuit::Summary() const {
  std::ostringstream os;
  os << "Circuit{gates=" << gates_.size() << ", mul=" << num_mul_
     << ", depth=" << MultiplicativeDepth() << ", outputs=" << outputs_.size()
     << "}";
  return os.str();
}

Status EvaluateLevels(
    const Circuit& circuit, size_t rows, BgwCheckpoint* checkpoint,
    const MulLevelFn& mul,
    const std::function<void(const BgwCheckpoint&)>& on_level) {
  using GateKind = Circuit::GateKind;
  const std::vector<Circuit::Gate>& gates = circuit.gates();
  if (checkpoint->wire_shares.size() != gates.size() * rows) {
    return Status::InvalidArgument(
        "checkpoint holds " + std::to_string(checkpoint->wire_shares.size()) +
        " wire shares, the circuit needs " + std::to_string(gates.size()) +
        " wires x " + std::to_string(rows) + " rows");
  }

  const std::vector<uint32_t>& depth = circuit.GateDepths();
  Field::Element* table = checkpoint->wire_shares.data();
  const auto shares = [table, rows](size_t wire) {
    return table + wire * rows;
  };
  std::vector<Circuit::WireId> mul_wires;
  for (size_t level = checkpoint->next_level;
       level <= circuit.MultiplicativeDepth(); ++level) {
    // This level's bucket: its kMul gates as one batch, then its local
    // gates in id order (a local gate's operands are lower ids, so id
    // order is an evaluation order).
    mul_wires.clear();
    for (size_t w = 0; w < gates.size(); ++w) {
      if (gates[w].kind == GateKind::kMul && depth[w] == level) {
        mul_wires.push_back(static_cast<Circuit::WireId>(w));
      }
    }
    if (!mul_wires.empty()) {
      SQM_RETURN_NOT_OK(mul(level, mul_wires));
      ++checkpoint->mul_rounds_done;
    }
    for (size_t w = 0; w < gates.size(); ++w) {
      if (depth[w] != level) continue;
      const Circuit::Gate& gate = gates[w];
      switch (gate.kind) {
        case GateKind::kConstant:
          // Public constant = degree-0 sharing: every share is the value.
          std::fill_n(shares(w), rows, Field::Reduce(circuit.constant(gate)));
          break;
        case GateKind::kAdd:
          Field::AddVec(shares(gate.lhs), shares(gate.rhs), shares(w), rows);
          break;
        case GateKind::kSub:
          Field::SubVec(shares(gate.lhs), shares(gate.rhs), shares(w), rows);
          break;
        case GateKind::kMulConst:
          Field::ScaleVec(shares(gate.lhs),
                          Field::Reduce(circuit.constant(gate)), shares(w),
                          rows);
          break;
        case GateKind::kInput:
        case GateKind::kMul:
          break;  // Inputs are dealt before the loop; muls ran above.
      }
    }
    checkpoint->next_level = level + 1;
    if (on_level) on_level(*checkpoint);
  }
  return Status::OK();
}

}  // namespace sqm
