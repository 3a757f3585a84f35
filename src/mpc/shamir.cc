#include "mpc/shamir.h"

#include <chrono>
#include <numeric>

#include "core/logging.h"
#include "obs/trace.h"

namespace sqm {
namespace {

/// Evaluation point of party j (0-based): alpha_j = j + 1.
Field::Element Alpha(size_t party) {
  return static_cast<Field::Element>(party + 1);
}

/// Lagrange coefficients L_j for evaluating at x: sum_j L_j *
/// phi(alpha_{parties[j]}) = phi(x) for any polynomial of degree <
/// parties.size(). `x` must differ from every alpha_{parties[j]}.
std::vector<Field::Element> LagrangeAt(const std::vector<size_t>& parties,
                                       Field::Element x) {
  std::vector<Field::Element> coeffs(parties.size());
  for (size_t j = 0; j < parties.size(); ++j) {
    const Field::Element xj = Alpha(parties[j]);
    Field::Element num = 1;
    Field::Element den = 1;
    for (size_t l = 0; l < parties.size(); ++l) {
      if (l == j) continue;
      const Field::Element xl = Alpha(parties[l]);
      // L_j(x) = prod_{l != j} (x - x_l) / (x_j - x_l).
      num = Field::Mul(num, Field::Sub(x, xl));
      den = Field::Mul(den, Field::Sub(xj, xl));
    }
    coeffs[j] = Field::Mul(num, Field::Inv(den));
  }
  return coeffs;
}

}  // namespace

ShamirScheme::ShamirScheme(size_t num_parties, size_t threshold)
    : num_parties_(num_parties), threshold_(threshold) {
  SQM_CHECK(Validate(num_parties, threshold).ok());
  // Precompute the evaluation and recombination tables once per scheme so
  // the batched hot path is table lookups, not repeated interpolation.
  vandermonde_.resize(num_parties_);
  for (size_t j = 0; j < num_parties_; ++j) {
    vandermonde_[j].resize(threshold_ + 1);
    vandermonde_[j][0] = 1;
    const Field::Element x = Alpha(j);
    for (size_t e = 1; e <= threshold_; ++e) {
      vandermonde_[j][e] = Field::Mul(vandermonde_[j][e - 1], x);
    }
  }
  std::vector<size_t> basis_t(threshold_ + 1);
  std::iota(basis_t.begin(), basis_t.end(), 0);
  lagrange_t_ = LagrangeAtZero(basis_t);
  std::vector<size_t> basis_2t(2 * threshold_ + 1);  // 2t+1 <= n (Validate).
  std::iota(basis_2t.begin(), basis_2t.end(), 0);
  lagrange_2t_ = LagrangeAtZero(basis_2t);
}

Status ShamirScheme::Validate(size_t num_parties, size_t threshold) {
  if (num_parties < 2) {
    return Status::InvalidArgument("Shamir sharing needs >= 2 parties");
  }
  if (2 * threshold >= num_parties) {
    return Status::InvalidArgument(
        "BGW multiplication requires threshold < num_parties / 2");
  }
  if (threshold == 0) {
    return Status::InvalidArgument(
        "threshold 0 gives every party the secret in the clear");
  }
  return Status::OK();
}

std::vector<Field::Element> ShamirScheme::Share(Field::Element secret,
                                                Rng& rng) const {
  // Random polynomial phi(x) = secret + c_1 x + ... + c_t x^t.
  std::vector<Field::Element> coeffs(threshold_ + 1);
  coeffs[0] = secret;
  for (size_t i = 1; i <= threshold_; ++i) {
    coeffs[i] = rng.NextBounded(Field::kModulus);
  }
  std::vector<Field::Element> shares(num_parties_);
  for (size_t j = 0; j < num_parties_; ++j) {
    // Horner evaluation at alpha_j.
    const Field::Element x = Alpha(j);
    Field::Element acc = coeffs[threshold_];
    for (size_t i = threshold_; i-- > 0;) {
      acc = Field::Add(Field::Mul(acc, x), coeffs[i]);
    }
    shares[j] = acc;
  }
  return shares;
}

Field::Element ShamirScheme::Reconstruct(
    const std::vector<Field::Element>& shares) const {
  SQM_CHECK(shares.size() == num_parties_);
  Field::Element acc = 0;
  for (size_t j = 0; j <= threshold_; ++j) {
    acc = Field::Add(acc, Field::Mul(lagrange_t_[j], shares[j]));
  }
  return acc;
}

std::vector<std::vector<Field::Element>> ShamirScheme::ShareBatch(
    const std::vector<Field::Element>& secrets, Rng& rng) const {
  const size_t d = secrets.size();
  // Draw every polynomial's coefficients first, secret-major — the exact
  // order d scalar Share calls consume the stream — then evaluate all d
  // polynomials per party as one linear combination of the coefficient
  // rows {secrets, c_1, ..., c_t} weighted by that party's Vandermonde row.
  std::vector<Field::Element> coeffs(threshold_ * d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t e = 0; e < threshold_; ++e) {
      coeffs[e * d + i] = rng.NextBounded(Field::kModulus);
    }
  }
  std::vector<const Field::Element*> terms(threshold_ + 1, secrets.data());
  for (size_t e = 0; e < threshold_; ++e) terms[e + 1] = coeffs.data() + e * d;
  std::vector<std::vector<Field::Element>> rows(
      num_parties_, std::vector<Field::Element>(d));
  for (size_t j = 0; j < num_parties_; ++j) {
    Field::LinearCombination(terms.data(), vandermonde_[j].data(),
                             terms.size(), rows[j].data(), d);
  }
  return rows;
}

std::vector<std::vector<Field::Element>> ShamirScheme::ShareBatchWithTail(
    const std::vector<Field::Element>& secrets, size_t tail, Rng& rng,
    int32_t track, double* tail_seconds) const {
  if (tail == 0) return ShareBatch(secrets, rng);
  SQM_CHECK(tail <= secrets.size());
  const auto split = secrets.end() - static_cast<std::ptrdiff_t>(tail);
  std::vector<std::vector<Field::Element>> rows =
      ShareBatch({secrets.begin(), split}, rng);
  const auto start = std::chrono::steady_clock::now();
  {
    obs::Span span("bgw.share.noise", "mpc", track);
    span.AddArg("elements", static_cast<int64_t>(tail));
    const std::vector<std::vector<Field::Element>> tail_rows =
        ShareBatch({split, secrets.end()}, rng);
    for (size_t j = 0; j < num_parties_; ++j) {
      rows[j].insert(rows[j].end(), tail_rows[j].begin(), tail_rows[j].end());
    }
  }
  *tail_seconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return rows;
}

std::vector<Field::Element> ShamirScheme::ReconstructBatch(
    const std::vector<std::vector<Field::Element>>& rows) const {
  SQM_CHECK(rows.size() == num_parties_);
  const size_t d = rows.empty() ? 0 : rows[0].size();
  for (const std::vector<Field::Element>& row : rows) {
    SQM_CHECK(row.size() == d);
  }
  std::vector<const Field::Element*> basis;
  for (size_t j = 0; j <= threshold_; ++j) basis.push_back(rows[j].data());
  std::vector<Field::Element> out(d);
  Field::LinearCombination(basis.data(), lagrange_t_.data(), basis.size(),
                           out.data(), d);
  return out;
}

Result<std::vector<Field::Element>> ShamirScheme::ReconstructBatchFromSurvivors(
    const std::vector<std::vector<Field::Element>>& rows,
    const std::vector<size_t>& survivors, size_t degree) const {
  SQM_CHECK(rows.size() == num_parties_);
  std::vector<size_t> parties;
  SQM_ASSIGN_OR_RETURN(parties, SelectSurvivorBasis(survivors, degree));
  size_t d = rows[parties[0]].size();
  std::vector<const Field::Element*> basis;
  for (size_t party : parties) {
    if (rows[party].size() != d) {
      return Status::IntegrityViolation(
          "survivor " + std::to_string(party) +
          " sent a batch of length " + std::to_string(rows[party].size()) +
          ", expected " + std::to_string(d));
    }
    basis.push_back(rows[party].data());
  }
  const std::vector<Field::Element> lagrange = LagrangeAtZero(parties);
  std::vector<Field::Element> out(d);
  Field::LinearCombination(basis.data(), lagrange.data(), basis.size(),
                           out.data(), d);
  return out;
}

Result<std::vector<size_t>> ShamirScheme::SelectSurvivorBasis(
    const std::vector<size_t>& survivors, size_t degree) const {
  const size_t needed = degree + 1;
  std::vector<size_t> parties;
  parties.reserve(needed);
  for (size_t party : survivors) {
    if (party >= num_parties_) {
      return Status::InvalidArgument("survivor index " +
                                     std::to_string(party) +
                                     " out of range");
    }
    bool duplicate = false;
    for (size_t seen : parties) {
      if (seen == party) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    parties.push_back(party);
    if (parties.size() == needed) break;
  }
  if (parties.size() < needed) {
    return Status::FailedPrecondition(
        "quorum too small for degree-" + std::to_string(degree) +
        " reconstruction: need " + std::to_string(needed) +
        " survivors, have " + std::to_string(parties.size()));
  }
  return parties;
}

Result<Field::Element> ShamirScheme::ReconstructFromSurvivors(
    const std::vector<Field::Element>& shares,
    const std::vector<size_t>& survivors, size_t degree) const {
  SQM_CHECK(shares.size() == num_parties_);
  std::vector<size_t> parties;
  SQM_ASSIGN_OR_RETURN(parties, SelectSurvivorBasis(survivors, degree));
  const std::vector<Field::Element> lagrange = LagrangeAtZero(parties);
  Field::Element acc = 0;
  for (size_t j = 0; j < parties.size(); ++j) {
    acc = Field::Add(acc, Field::Mul(lagrange[j], shares[parties[j]]));
  }
  return acc;
}

std::vector<Field::Element> ShamirScheme::LagrangeAtZero(
    const std::vector<size_t>& parties) const {
  for (size_t party : parties) SQM_CHECK(party < num_parties_);
  return LagrangeAt(parties, 0);
}

Status ShamirScheme::CheckConsistentSharing(
    const std::vector<Field::Element>& shares,
    const std::vector<size_t>& parties, size_t degree) const {
  SQM_CHECK(shares.size() == num_parties_);
  const size_t basis_size = degree + 1;
  if (parties.size() <= basis_size) return Status::OK();  // No redundancy.
  for (size_t party : parties) SQM_CHECK(party < num_parties_);
  const std::vector<size_t> basis(parties.begin(),
                                  parties.begin() + basis_size);
  for (size_t j = basis_size; j < parties.size(); ++j) {
    const size_t party = parties[j];
    const std::vector<Field::Element> weights =
        LagrangeAt(basis, Alpha(party));
    Field::Element predicted = 0;
    for (size_t l = 0; l < basis.size(); ++l) {
      predicted =
          Field::Add(predicted, Field::Mul(weights[l], shares[basis[l]]));
    }
    if (predicted != shares[party]) {
      return Status::IntegrityViolation(
          "inconsistent sharing: party " + std::to_string(party) +
          "'s share does not lie on the degree-" + std::to_string(degree) +
          " polynomial through the first " + std::to_string(basis_size) +
          " shares (wrong-degree dealing, equivocation, or a tampered "
          "share)");
    }
  }
  return Status::OK();
}

Status ShamirScheme::CheckConsistentSharing(
    const std::vector<Field::Element>& shares, size_t degree) const {
  std::vector<size_t> all(num_parties_);
  std::iota(all.begin(), all.end(), 0);
  return CheckConsistentSharing(shares, all, degree);
}

}  // namespace sqm
