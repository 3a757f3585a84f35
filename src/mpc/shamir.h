#ifndef SQM_MPC_SHAMIR_H_
#define SQM_MPC_SHAMIR_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "mpc/field.h"
#include "sampling/rng.h"

namespace sqm {

/// A secret-shared vector as one process holds it: row r is the share row
/// of the r-th party the process hosts (all n parties in driver mode, one
/// in a deployment), shares(r)[i] being that party's share of element i.
/// Callers never see plaintext until BgwEngine::OpenOutputs.
class SharedVector {
 public:
  SharedVector() = default;
  SharedVector(size_t num_parties, size_t size)
      : shares_(num_parties, std::vector<Field::Element>(size, 0)) {}

  size_t num_parties() const { return shares_.size(); }
  size_t size() const { return shares_.empty() ? 0 : shares_[0].size(); }

  std::vector<Field::Element>& shares(size_t party) { return shares_[party]; }
  const std::vector<Field::Element>& shares(size_t party) const {
    return shares_[party];
  }

 private:
  std::vector<std::vector<Field::Element>> shares_;
};

/// Shamir (t, n) secret sharing over Z_{2^61-1} — the building block of the
/// BGW protocol (Appendix B of the paper).
///
/// A secret s is embedded as the constant term of a uniformly random degree-t
/// polynomial phi; party j receives the evaluation phi(alpha_j) where
/// alpha_j = j + 1. Any t+1 shares reconstruct s by Lagrange interpolation
/// at zero; any t or fewer shares are jointly uniform and reveal nothing.
class ShamirScheme {
 public:
  /// Creates a scheme for `num_parties` parties with polynomial degree
  /// `threshold` (an adversary must corrupt > threshold parties to learn
  /// anything). BGW multiplication requires threshold < num_parties / 2.
  ShamirScheme(size_t num_parties, size_t threshold);

  /// Validates the (t, n) combination; call before constructing when the
  /// parameters come from user input.
  static Status Validate(size_t num_parties, size_t threshold);

  size_t num_parties() const { return num_parties_; }
  size_t threshold() const { return threshold_; }

  /// Splits `secret` into one share per party using randomness from `rng`.
  std::vector<Field::Element> Share(Field::Element secret, Rng& rng) const;

  /// Batched sharing: splits a d-vector of secrets into one d-row per
  /// party. Party j's row is one Field::LinearCombination of the rows
  /// {secrets, c_1, ..., c_t} weighted by its precomputed Vandermonde row
  /// (alpha_j^0..alpha_j^t), instead of d Horner walks. Draws randomness in
  /// exactly the order d scalar Share calls would (secret-major,
  /// coefficient-minor), so a driver issuing ShareBatch and a replayer
  /// issuing d Share calls stay bit-identical and leave `rng` at the same
  /// cursor.
  std::vector<std::vector<Field::Element>> ShareBatch(
      const std::vector<Field::Element>& secrets, Rng& rng) const;

  /// ShareBatch with the trailing `tail` secrets dealt as a second batch
  /// into the same rows: bit-identical to ShareBatch(secrets, rng), since
  /// ShareBatch draws secret-major. The tail's dealing runs in a
  /// "bgw.share.noise" span on trace track `track`, and its wall time is
  /// added to *tail_seconds (measured with obs off too). SQM deals each
  /// party's noise inputs this way, timing noise injection inside the real
  /// input round.
  std::vector<std::vector<Field::Element>> ShareBatchWithTail(
      const std::vector<Field::Element>& secrets, size_t tail, Rng& rng,
      int32_t track, double* tail_seconds) const;

  /// Lagrange-at-zero weights of parties 0..2t: the GRR recombination
  /// weights when the first 2t+1 dealers deliver.
  const std::vector<Field::Element>& degree2t_weights() const {
    return lagrange_2t_;
  }

  /// Reconstructs the secret from the full share vector (degree-t
  /// interpolation using the first threshold+1 shares; the trailing n-t-1
  /// shares are ignored — CheckConsistentSharing checks all n).
  Field::Element Reconstruct(
      const std::vector<Field::Element>& shares) const;

  /// Batched reconstruction of d secrets from per-party d-rows
  /// (`rows[party][i]`): one Field::LinearCombination of the first t+1
  /// rows under the precomputed degree-t Lagrange weights instead of d
  /// interpolations. Bit-identical to d scalar Reconstruct calls.
  std::vector<Field::Element> ReconstructBatch(
      const std::vector<std::vector<Field::Element>>& rows) const;

  /// Quorum variant of ReconstructBatch: selects interpolation parties from
  /// `survivors` exactly as ReconstructFromSurvivors does, then recombines
  /// all d elements with one weight vector. Rows of non-survivors are
  /// ignored and may be empty; a selected row of the wrong length fails
  /// with kIntegrityViolation.
  Result<std::vector<Field::Element>> ReconstructBatchFromSurvivors(
      const std::vector<std::vector<Field::Element>>& rows,
      const std::vector<size_t>& survivors, size_t degree) const;

  /// Quorum reconstruction: interpolates a degree-`degree` sharing from the
  /// shares of the listed survivor parties only. `shares` is the full
  /// n-length vector indexed by party; entries of non-survivors are ignored
  /// (typically stale or missing). Needs at least degree+1 distinct valid
  /// survivors, else fails with kFailedPrecondition naming the shortfall.
  /// Any (degree+1)-subset of a consistent sharing yields the same secret —
  /// this is what lets a BGW run release the exact no-crash output from a
  /// 2t+1 quorum after dropouts.
  Result<Field::Element> ReconstructFromSurvivors(
      const std::vector<Field::Element>& shares,
      const std::vector<size_t>& survivors, size_t degree) const;

  /// Lagrange coefficients L_j such that sum_j L_j * phi(alpha_j) = phi(0)
  /// for any polynomial phi of degree < parties.size(), where the points are
  /// alpha_{parties[j]}.
  std::vector<Field::Element> LagrangeAtZero(
      const std::vector<size_t>& parties) const;

  /// Conformance check: do the listed parties' share points all lie on ONE
  /// polynomial of degree <= `degree`? Interpolates from the first
  /// degree+1 listed points and verifies every remaining one; a honest
  /// degree-`degree` sharing always passes, while a wrong-degree dealing,
  /// an equivocated broadcast, or any single tampered share among at least
  /// degree+2 points fails with kIntegrityViolation naming the first
  /// mismatching party. With exactly degree+1 points there is no
  /// redundancy: the check vacuously passes (any degree+1 points lie on
  /// some degree-`degree` polynomial), which is the information-theoretic
  /// limit, not an implementation gap. `shares` is the full n-length
  /// vector indexed by party.
  Status CheckConsistentSharing(const std::vector<Field::Element>& shares,
                                const std::vector<size_t>& parties,
                                size_t degree) const;

  /// All-parties overload: checks the full n-point sharing.
  Status CheckConsistentSharing(const std::vector<Field::Element>& shares,
                                size_t degree) const;

 private:
  /// Selects the first degree+1 distinct valid survivor indices — the
  /// shared selection rule of ReconstructFromSurvivors and its batch
  /// variant, so both always interpolate from the same quorum subset.
  Result<std::vector<size_t>> SelectSurvivorBasis(
      const std::vector<size_t>& survivors, size_t degree) const;

  size_t num_parties_;
  size_t threshold_;

  /// Precomputed coefficient tables (see docs/PROTOCOL.md "Batched
  /// evaluation"): vandermonde_[j][e] = alpha_j^e for e <= threshold, and
  /// the Lagrange-at-zero weights of the first t+1 (degree-t) and first
  /// 2t+1 (degree-2t) parties. All are pure functions of (n, t), so two
  /// schemes with equal parameters share identical tables.
  std::vector<std::vector<Field::Element>> vandermonde_;
  std::vector<Field::Element> lagrange_t_;
  std::vector<Field::Element> lagrange_2t_;
};

}  // namespace sqm

#endif  // SQM_MPC_SHAMIR_H_
