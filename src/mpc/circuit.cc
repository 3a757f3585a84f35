#include "mpc/circuit.h"

#include <algorithm>
#include <sstream>

#include "core/logging.h"

namespace sqm {

Circuit::WireId Circuit::Push(Gate gate) {
  gates_.push_back(gate);
  return static_cast<WireId>(gates_.size() - 1);
}

void Circuit::Reserve(size_t num_gates, size_t num_constants) {
  gates_.reserve(num_gates);
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

std::vector<uint32_t> Circuit::GateDepths() const {
  std::vector<uint32_t> depth(gates_.size(), 0);
  for (size_t i = 0; i < gates_.size(); ++i) {
    const Gate& gate = gates_[i];
    switch (gate.kind) {
      case GateKind::kInput:
      case GateKind::kConstant:
        break;
      case GateKind::kAdd:
      case GateKind::kSub:
        depth[i] = std::max(depth[gate.lhs], depth[gate.rhs]);
        break;
      case GateKind::kMulConst:
        depth[i] = depth[gate.lhs];
        break;
      case GateKind::kMul:
        depth[i] = std::max(depth[gate.lhs], depth[gate.rhs]) + 1;
        break;
    }
  }
  return depth;
}

size_t Circuit::MultiplicativeDepth() const {
  const std::vector<uint32_t> depth = GateDepths();
  return depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end());
}

Status Circuit::Validate(size_t num_parties) const {
  for (size_t i = 0; i < gates_.size(); ++i) {
    const Gate& gate = gates_[i];
    switch (gate.kind) {
      case GateKind::kInput:
        if (gate.owner() >= num_parties) {
          return Status::InvalidArgument(
              "input gate owned by out-of-range party " +
              std::to_string(gate.owner()));
        }
        break;
      case GateKind::kAdd:
      case GateKind::kSub:
      case GateKind::kMul:
        if (gate.lhs >= i || gate.rhs >= i) {
          return Status::InvalidArgument("gate references a later wire");
        }
        break;
      case GateKind::kMulConst:
        if (gate.lhs >= i) {
          return Status::InvalidArgument("gate references a later wire");
        }
        break;
      case GateKind::kConstant:
        break;
    }
  }
  if (outputs_.empty()) {
    return Status::InvalidArgument("circuit has no outputs");
  }
  for (WireId w : outputs_) {
    if (w >= gates_.size()) {
      return Status::InvalidArgument("output references unknown wire");
    }
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

}  // namespace sqm
