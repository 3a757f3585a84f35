#ifndef SQM_MPC_FIELD_H_
#define SQM_MPC_FIELD_H_

#include <cstdint>
#include <vector>

#include "core/status.h"

namespace sqm {

/// Arithmetic in the prime field Z_p with p = 2^61 - 1 (a Mersenne prime).
///
/// BGW secret sharing and circuit evaluation run over this field. The
/// Mersenne modulus admits branch-light reduction of 128-bit products, and
/// 2^61 - 1 comfortably holds the quantized magnitudes of the paper's
/// experiments (gamma up to 2^14, ||x||_2 <= c, m up to a few hundred
/// thousand records; see EstimateCapacityBits in core/sensitivity.h for the
/// guard SQM applies before choosing parameters).
///
/// Signed payloads use a *centered* encoding: integers in
/// [-(p-1)/2, (p-1)/2] map to their residue mod p and are decoded back by
/// subtracting p from residues above p/2. Wrap-around past the centered
/// range silently corrupts results AND breaks the sensitivity analysis, so
/// the SQM front end refuses parameter combinations that could wrap.
class Field {
 public:
  using Element = uint64_t;

  static constexpr Element kModulus = (uint64_t{1} << 61) - 1;

  /// Serialized width of one element. The wire format packs the 61-bit
  /// residue, so the width follows the modulus — not sizeof(Element), which
  /// is an in-memory representation choice. Transports use this for byte
  /// accounting.
  static constexpr size_t kWireBits = 61;
  static constexpr size_t kWireBytes = (kWireBits + 7) / 8;

  /// Largest magnitude representable in the centered encoding. Constant
  /// arithmetic on the modulus itself cannot wrap.
  static constexpr int64_t kMaxCentered =
      static_cast<int64_t>((kModulus - 1) / 2);  // sqmlint:allow(field-capacity)

  /// Reduces an arbitrary 64-bit value into [0, p).
  static Element Reduce(uint64_t x);

  static Element Add(Element a, Element b);
  static Element Sub(Element a, Element b);
  static Element Neg(Element a);
  static Element Mul(Element a, Element b);

  /// a^e mod p by square-and-multiply.
  static Element Pow(Element a, uint64_t e);

  /// Multiplicative inverse; `a` must be nonzero (checked).
  static Element Inv(Element a);

  /// Encodes a signed integer with |v| <= kMaxCentered (checked).
  static Element Encode(int64_t v);

  /// Decodes an element to the centered signed representative.
  static int64_t Decode(Element e);

  /// Vector conveniences used by the sharing layer.
  static std::vector<Element> EncodeVector(const std::vector<int64_t>& v);
  static std::vector<int64_t> DecodeVector(const std::vector<Element>& v);

  /// Batched, branchless kernels for the MPC hot path (span-style:
  /// pointer + count; `out` may alias an input). Each produces exactly the
  /// canonical residues the scalar operations produce — the branchless
  /// mask-subtract is a code-generation choice, not a semantic one — so the
  /// batched protocol path is bit-identical to the element-at-a-time path
  /// by construction. See tests/batch_equivalence_test.cc for the proof
  /// harness and docs/PROTOCOL.md "Batched evaluation".
  static void ReduceVec(const uint64_t* in, Element* out, size_t n);
  static void AddVec(const Element* a, const Element* b, Element* out,
                     size_t n);
  static void SubVec(const Element* a, const Element* b, Element* out,
                     size_t n);
  static void MulVec(const Element* a, const Element* b, Element* out,
                     size_t n);
  /// out[i] = a[i] * c.
  static void ScaleVec(const Element* a, Element c, Element* out, size_t n);
  /// out[i] = sum_r weights[r] * rows[r][i] over inputs below 2^61, each
  /// element reduced once (folded every 64 rows); `out` may alias a row.
  static void LinearCombination(const Element* const* rows,
                                const Element* weights, size_t num_rows,
                                Element* out, size_t n);
  /// Sum of a[0..n) in the field. Field addition is exact mod p, so the
  /// reduction order cannot change the result.
  static Element SumVec(const Element* a, size_t n);
};

}  // namespace sqm

#endif  // SQM_MPC_FIELD_H_
