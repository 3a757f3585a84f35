#include "mpc/field.h"

#include "core/logging.h"

namespace sqm {
namespace {

// Branchless canonicalization of r in [0, 2p): subtract p iff r >= p. The
// scalar ops route through this too — field elements are shares and masks,
// and a data-dependent branch on them is a timing side channel. (It also
// keeps the batched loops below straight-line and auto-vectorizable.)
inline uint64_t CanonicalizeBranchless(uint64_t r) {
  return r - (Field::kModulus &
              -static_cast<uint64_t>(r >= Field::kModulus));
}

inline uint64_t MulOneBranchless(uint64_t a, uint64_t b) {
  const __uint128_t prod = static_cast<__uint128_t>(a) * b;
  const uint64_t lo = static_cast<uint64_t>(prod) & Field::kModulus;
  const uint64_t hi = static_cast<uint64_t>(prod >> 61);
  uint64_t r = lo + (hi & Field::kModulus) + (hi >> 61);
  r = (r & Field::kModulus) + (r >> 61);
  return CanonicalizeBranchless(r);
}

}  // namespace

Field::Element Field::Reduce(uint64_t x) {
  // Mersenne reduction: x = hi*2^61 + lo === hi + lo (mod 2^61 - 1).
  return CanonicalizeBranchless((x & kModulus) + (x >> 61));
}

Field::Element Field::Add(Element a, Element b) {
  return CanonicalizeBranchless(a + b);  // a+b < 2^62, no overflow.
}

Field::Element Field::Sub(Element a, Element b) {
  // a - b, plus p iff a < b — mask add instead of a secret-dependent branch.
  return a - b + (kModulus & -static_cast<uint64_t>(a < b));
}

Field::Element Field::Neg(Element a) {
  // (p - a) for a != 0, 0 for a == 0, without branching on the element.
  return (kModulus - a) & -static_cast<uint64_t>(a != 0);
}

Field::Element Field::Mul(Element a, Element b) {
  return MulOneBranchless(a, b);
}

Field::Element Field::Pow(Element a, uint64_t e) {
  Element result = 1;
  Element base = a;
  while (e > 0) {
    if (e & 1) result = Mul(result, base);
    base = Mul(base, base);
    e >>= 1;
  }
  return result;
}

Field::Element Field::Inv(Element a) {
  SQM_CHECK(a != 0);
  // Fermat: a^(p-2) mod p.
  return Pow(a, kModulus - 2);
}

Field::Element Field::Encode(int64_t v) {
  SQM_CHECK(v >= -kMaxCentered && v <= kMaxCentered);
  // v for v >= 0, p - |v| == p + v for v < 0: add p under the sign mask.
  // Two's-complement wraparound makes the uint64 sum land in [0, p).
  return static_cast<Element>(
      static_cast<uint64_t>(v) +
      (kModulus & -static_cast<uint64_t>(v < 0)));
}

int64_t Field::Decode(Element e) {
  SQM_CHECK(e < kModulus);
  // e for small representatives, e - p for the negative half — the
  // subtrahend is selected by mask, not by a branch on the element.
  return static_cast<int64_t>(e) -
         static_cast<int64_t>(
             kModulus &
             -static_cast<uint64_t>(e > static_cast<Element>(kMaxCentered)));
}

std::vector<Field::Element> Field::EncodeVector(
    const std::vector<int64_t>& v) {
  std::vector<Element> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = Encode(v[i]);
  return out;
}

std::vector<int64_t> Field::DecodeVector(const std::vector<Element>& v) {
  std::vector<int64_t> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = Decode(v[i]);
  return out;
}

void Field::ReduceVec(const uint64_t* in, Element* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] =
        CanonicalizeBranchless((in[i] & kModulus) + (in[i] >> 61));
  }
}

void Field::AddVec(const Element* a, const Element* b, Element* out,
                   size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = CanonicalizeBranchless(a[i] + b[i]);  // a+b < 2^62: no overflow.
  }
}

void Field::SubVec(const Element* a, const Element* b, Element* out,
                   size_t n) {
  for (size_t i = 0; i < n; ++i) {
    // a - b + (p if a < b): the mask add replaces the scalar ternary.
    out[i] =
        a[i] - b[i] + (kModulus & -static_cast<uint64_t>(a[i] < b[i]));
  }
}

void Field::MulVec(const Element* a, const Element* b, Element* out,
                   size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = MulOneBranchless(a[i], b[i]);
}

void Field::ScaleVec(const Element* a, Element c, Element* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = MulOneBranchless(a[i], c);
}

void Field::LinearCombination(const Element* const* rows,
                              const Element* weights, size_t num_rows,
                              Element* out, size_t n) {
  // 64 products of sub-2^61 operands plus a folded carry (< 2^63) stay
  // below 2^128; the fold sums the 128-bit total's three 61-bit limbs
  // (2^61 == 1 mod p). The loop bounds depend on public counts only.
  for (size_t i = 0; i < n; ++i) {
    uint64_t folded = 0;
    for (size_t base = 0; base < num_rows; base += 64) {
      const size_t end = base + 64 < num_rows ? base + 64 : num_rows;
      __uint128_t acc = folded;
      for (size_t r = base; r < end; ++r) {
        acc += static_cast<__uint128_t>(rows[r][i]) * weights[r];
      }
      folded = (static_cast<uint64_t>(acc) & kModulus) +
               (static_cast<uint64_t>(acc >> 61) & kModulus) +
               static_cast<uint64_t>(acc >> 122);
    }
    out[i] = Reduce(folded);
  }
}

Field::Element Field::SumVec(const Element* a, size_t n) {
  Element acc = 0;
  for (size_t i = 0; i < n; ++i) acc = CanonicalizeBranchless(acc + a[i]);
  return acc;
}

}  // namespace sqm
