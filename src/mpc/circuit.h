#ifndef SQM_MPC_CIRCUIT_H_
#define SQM_MPC_CIRCUIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "mpc/field.h"

namespace sqm {

/// Arithmetic-circuit intermediate representation for the BGW engine.
///
/// Wires are created in topological order by the builder methods, so gate id
/// order is already a valid evaluation order. The engine schedules all
/// multiplications whose operands are ready into a single communication
/// round, so the number of rounds is the multiplicative depth plus the input
/// and output rounds.
class Circuit {
 public:
  using WireId = uint32_t;

  enum class GateKind : uint8_t {
    kInput,     ///< Private input owned by one party.
    kConstant,  ///< Public field constant.
    kAdd,       ///< lhs + rhs.
    kSub,       ///< lhs - rhs.
    kMulConst,  ///< lhs * public constant.
    kMul,       ///< lhs * rhs (interactive).
  };

  /// 12 bytes: a kind plus two operand slots whose meaning depends on it.
  ///   kAdd / kSub / kMul: lhs, rhs are operand wires.
  ///   kMulConst:          lhs is the operand wire, rhs indexes constants.
  ///   kConstant:          lhs indexes constants.
  ///   kInput:             lhs is the owning party, rhs the index into
  ///                       that party's inputs.
  struct Gate {
    GateKind kind;
    WireId lhs = 0;
    WireId rhs = 0;

    size_t owner() const { return lhs; }
    size_t input_index() const { return rhs; }
  };

  /// Declares a private input for `party`. Inputs are consumed from each
  /// party's input vector in declaration order.
  WireId AddInput(size_t party);

  /// Public constant wire.
  WireId AddConstant(Field::Element value);

  WireId AddAdd(WireId lhs, WireId rhs);
  WireId AddSub(WireId lhs, WireId rhs);
  WireId AddMulConst(WireId lhs, Field::Element constant);
  WireId AddMul(WireId lhs, WireId rhs);

  /// Marks a wire as a protocol output (opened to everyone at the end).
  void MarkOutput(WireId wire);

  /// Pre-sizes the gate and constant storage (a builder that knows its
  /// counts avoids every reallocation).
  void Reserve(size_t num_gates, size_t num_constants);

  const std::vector<Gate>& gates() const { return gates_; }
  const std::vector<WireId>& outputs() const { return outputs_; }

  size_t num_gates() const { return gates_.size(); }
  size_t num_multiplications() const { return num_mul_; }

  /// Number of inputs declared for `party`.
  size_t NumInputsForParty(size_t party) const {
    return party < inputs_per_party_.size() ? inputs_per_party_[party] : 0;
  }

  /// The public constant of a kConstant or kMulConst gate.
  Field::Element constant(const Gate& gate) const {
    return constants_[gate.kind == GateKind::kConstant ? gate.lhs : gate.rhs];
  }

  /// Per wire, the most kMul gates on any path into it. The evaluators
  /// batch the kMul gates of one depth into one round, so this schedule
  /// fixes the message pattern.
  std::vector<uint32_t> GateDepths() const;

  /// Longest chain of kMul gates — the protocol's round-depth driver.
  size_t MultiplicativeDepth() const;

  /// Structural sanity: wire references in range, outputs exist.
  Status Validate(size_t num_parties) const;

  std::string Summary() const;

 private:
  WireId Push(Gate gate);

  std::vector<Gate> gates_;
  std::vector<Field::Element> constants_;
  std::vector<WireId> outputs_;
  std::vector<size_t> inputs_per_party_;  ///< [party] inputs declared.
  size_t num_mul_ = 0;
};

static_assert(sizeof(Circuit::Gate) <= 12, "Circuit::Gate is 12 bytes");

}  // namespace sqm

#endif  // SQM_MPC_CIRCUIT_H_
