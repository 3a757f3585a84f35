#include "mpc/beaver.h"

#include "mpc/field.h"
#include "obs/metrics.h"

namespace sqm {

BeaverTriplePool::BeaverTriplePool(ShamirScheme scheme, uint64_t seed,
                                   size_t capacity)
    : scheme_(std::move(scheme)),
      rng_(seed),
      a_rows_(scheme_.num_parties()),
      b_rows_(scheme_.num_parties()),
      c_rows_(scheme_.num_parties()) {
  DealInto(capacity);
}

void BeaverTriplePool::DealInto(size_t count) {
  const size_t n = scheme_.num_parties();
  for (size_t j = 0; j < n; ++j) {
    a_rows_[j].reserve(dealt_ + count);
    b_rows_[j].reserve(dealt_ + count);
    c_rows_[j].reserve(dealt_ + count);
  }
  // Triple-major draw order: a, b, then the three scalar sharings (pinned
  // by golden_stream_test).
  for (size_t i = 0; i < count; ++i) {
    const Field::Element a = rng_.NextBounded(Field::kModulus);
    const Field::Element b = rng_.NextBounded(Field::kModulus);
    const Field::Element c = Field::Mul(a, b);
    const std::vector<Field::Element> a_shares = scheme_.Share(a, rng_);
    const std::vector<Field::Element> b_shares = scheme_.Share(b, rng_);
    const std::vector<Field::Element> c_shares = scheme_.Share(c, rng_);
    for (size_t j = 0; j < n; ++j) {
      a_rows_[j].push_back(a_shares[j]);
      b_rows_[j].push_back(b_shares[j]);
      c_rows_[j].push_back(c_shares[j]);
    }
  }
  dealt_ += count;
  SQM_OBS_GAUGE_SET("mpc.beaver.pool_remaining", available());
}

Result<BeaverTriplePool::TripleBatch> BeaverTriplePool::Take(size_t count) {
  if (count > available()) {
    return Status::FailedPrecondition(
        "Beaver pool exhausted: online Mul needs " + std::to_string(count) +
        " triples, " + std::to_string(available()) + " of " +
        std::to_string(dealt_) + " remain; refusing to deal online "
        "(refill offline via Refill)");
  }
  const size_t n = scheme_.num_parties();
  TripleBatch batch;
  batch.a = SharedVector(n, count);
  batch.b = SharedVector(n, count);
  batch.c = SharedVector(n, count);
  for (size_t j = 0; j < n; ++j) {
    const auto begin = static_cast<std::ptrdiff_t>(cursor_);
    const auto end = static_cast<std::ptrdiff_t>(cursor_ + count);
    batch.a.shares(j).assign(a_rows_[j].begin() + begin,
                             a_rows_[j].begin() + end);
    batch.b.shares(j).assign(b_rows_[j].begin() + begin,
                             b_rows_[j].begin() + end);
    batch.c.shares(j).assign(c_rows_[j].begin() + begin,
                             c_rows_[j].begin() + end);
  }
  cursor_ += count;
  // Live pool depth for the fleet telemetry view (sqm-top's "pool" column
  // and fleet_metrics.json's beaver_pool_depth).
  SQM_OBS_GAUGE_SET("mpc.beaver.pool_remaining", available());
  return batch;
}

Status BeaverTriplePool::Refill(size_t count) {
  DealInto(count);
  return Status::OK();
}

Status BeaverTriplePool::Refill(size_t count,
                                const std::vector<size_t>& survivors) {
  const size_t needed = 2 * scheme_.threshold() + 1;
  size_t distinct = 0;
  std::vector<bool> seen(scheme_.num_parties(), false);
  for (size_t party : survivors) {
    if (party >= scheme_.num_parties() || seen[party]) continue;
    seen[party] = true;
    ++distinct;
  }
  if (distinct < needed) {
    return Status::FailedPrecondition(
        "Beaver refill refused: dealing degree-t triples that recombine "
        "under a quorum Mul needs 2t+1 = " + std::to_string(needed) +
        " surviving dealers, have " + std::to_string(distinct));
  }
  return Refill(count);
}

}  // namespace sqm
