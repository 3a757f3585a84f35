#ifndef SQM_MPC_CIRCUIT_H_
#define SQM_MPC_CIRCUIT_H_

#include <cstdint>
#include <functional>
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

  /// Per wire, the most kMul gates on any path into it, recorded as each
  /// gate is pushed. EvaluateLevels batches the kMul gates of one depth
  /// into one round, so this schedule fixes the message pattern.
  const std::vector<uint32_t>& GateDepths() const { return depth_; }

  /// Longest chain of kMul gates — the protocol's round-depth driver.
  size_t MultiplicativeDepth() const { return max_depth_; }

  /// Structural sanity: wire references in range, outputs exist.
  Status Validate(size_t num_parties) const;

  std::string Summary() const;

 private:
  WireId Push(Gate gate);

  std::vector<Gate> gates_;
  std::vector<uint32_t> depth_;  ///< [wire] multiplicative depth.
  uint32_t max_depth_ = 0;
  std::vector<Field::Element> constants_;
  std::vector<WireId> outputs_;
  std::vector<size_t> inputs_per_party_;  ///< [party] inputs declared.
  size_t num_mul_ = 0;
};

static_assert(sizeof(Circuit::Gate) <= 12, "Circuit::Gate is 12 bytes");

/// Phase-level checkpoint of one circuit evaluation: the wire shares after
/// the last fully completed level. A Mul that fails (quorum shortfall,
/// timed-out links) leaves the checkpoint at the preceding level; passing
/// the same checkpoint back into an engine's EvaluateToShares resumes
/// there — input sharing and all completed levels are skipped.
struct BgwCheckpoint {
  bool valid = false;    ///< Inputs shared; wire_shares meaningful.
  size_t next_level = 0; ///< First level not yet completed.
  /// One wire-major table of `rows` shares per wire (one per hosted party):
  /// wire w's shares sit at [w * rows, w * rows + rows).
  std::vector<Field::Element> wire_shares;
  size_t mul_rounds_done = 0;
};

/// Evaluates one batch of kMul gates (the wires of one level, in id order)
/// on the checkpoint's share table: gather operands, multiply, scatter.
using MulLevelFn =
    std::function<Status(size_t level, const std::vector<Circuit::WireId>&)>;

/// Phase 2 of the paper's Appendix B, BgwEngine's level loop: from
/// checkpoint->next_level up to the multiplicative depth, every level
/// first hands its kMul gates to `mul` as one batch (one communication
/// round), then evaluates its local gates (constants, Add, Sub, MulConst)
/// in id order as span kernels over each wire's `rows` shares. After every
/// level it advances next_level (and mul_rounds_done when a batch ran)
/// and calls `on_level`, if set. The checkpoint must hold the input
/// phase's share table; a table sized for another circuit fails with
/// kInvalidArgument. A failed `mul` returns its status with the
/// checkpoint still at that level, which is where a retry resumes.
Status EvaluateLevels(const Circuit& circuit, size_t rows,
                      BgwCheckpoint* checkpoint, const MulLevelFn& mul,
                      const std::function<void(const BgwCheckpoint&)>& on_level);

}  // namespace sqm

#endif  // SQM_MPC_CIRCUIT_H_
