#ifndef SQM_MPC_BEAVER_H_
#define SQM_MPC_BEAVER_H_

#include <cstddef>
#include <vector>

#include "core/status.h"
#include "mpc/shamir.h"
#include "sampling/rng.h"

namespace sqm {

/// Beaver-triple multiplication: the preprocessing-model alternative to
/// BGW's GRR degree reduction.
///
/// Offline, a dealer (or an offline protocol) distributes shares of random
/// triples (a, b, c) with c = a * b. Online, multiplying [x] * [y] costs
/// one opening of (x - a, y - b) — half the per-party traffic of GRR
/// re-sharing and no fresh polynomial sampling on the critical path, at
/// the price of consuming one triple per product.
///
/// SQM treats the MPC as a black box (Section II), so this backend slots
/// under the same SharedVector algebra: attach a pool with
/// BgwProtocol::set_beaver_pool (or PartyProtocol's) and Mul runs the
/// online path; `bench/ablation_beaver_vs_grr` compares the online costs.
///
/// The pool is the offline-phase triple store: it pre-deals a fixed budget
/// of triples at construction and serves the online path from the queue,
/// so online Mul timing and traffic contain zero dealing work. The dealer
/// here is the standard semi-honest preprocessing abstraction: in a
/// deployment it would be replaced by an offline triple-generation
/// protocol, which does not change the online phase. The triple stream is
/// a pure function of (scheme, seed) — every party (or the driver
/// replaying all parties) derives the same pool independently.
///
/// Exhaustion is a refusal, never a silent online re-deal: Take past the
/// dealt budget fails with kFailedPrecondition. Refill is an explicit
/// offline act, and on the quorum/dropout path it enforces the same
/// 2t+1 dealer rule as a GRR multiplication: fewer than 2t+1 surviving
/// parties can no longer deal degree-t sharings that recombine to a
/// correct product.
class BeaverTriplePool {
 public:
  /// One Take's worth of triples in SharedVector layout: element i of
  /// (a, b, c) is the i-th triple, c = a * b.
  struct TripleBatch {
    SharedVector a;
    SharedVector b;
    SharedVector c;
  };

  /// Pre-deals `capacity` triples from the deterministic `seed` stream
  /// (the offline phase; not part of any online timing).
  BeaverTriplePool(ShamirScheme scheme, uint64_t seed, size_t capacity);

  size_t capacity() const { return dealt_; }
  size_t taken() const { return cursor_; }
  size_t available() const { return dealt_ - cursor_; }

  /// Takes the next `count` triples in stream order. Fails with
  /// kFailedPrecondition when fewer than `count` remain — the pool is
  /// left untouched and no fresh triples are dealt.
  Result<TripleBatch> Take(size_t count);

  /// Offline refill: deals `count` further triples from the same stream.
  Status Refill(size_t count);

  /// Quorum-path refill: refuses with kFailedPrecondition unless at least
  /// 2t+1 distinct valid parties survive in `survivors` (the quorum Mul
  /// dealer rule); otherwise deals exactly as Refill(count).
  Status Refill(size_t count, const std::vector<size_t>& survivors);

 private:
  void DealInto(size_t count);

  ShamirScheme scheme_;
  Rng rng_;
  size_t dealt_ = 0;
  size_t cursor_ = 0;
  // Structure-of-arrays: rows_[party][triple], so a Take slices k
  // contiguous columns into SharedVector rows.
  std::vector<std::vector<Field::Element>> a_rows_;
  std::vector<std::vector<Field::Element>> b_rows_;
  std::vector<std::vector<Field::Element>> c_rows_;
};

}  // namespace sqm

#endif  // SQM_MPC_BEAVER_H_
