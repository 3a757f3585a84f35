#include "mpc/ops.h"

#include "core/logging.h"
#include "mpc/field.h"

namespace sqm {

SecureOps::SecureOps(BgwProtocol* protocol) : protocol_(protocol) {
  SQM_CHECK(protocol != nullptr);
}

Result<std::vector<SharedVector>> SecureOps::ShareColumns(
    const std::vector<std::vector<int64_t>>& columns) {
  if (columns.size() != protocol_->num_parties()) {
    return Status::InvalidArgument(
        "ShareColumns: need exactly one column per party");
  }
  const size_t m = columns.empty() ? 0 : columns[0].size();
  std::vector<SharedVector> shared;
  shared.reserve(columns.size());
  for (size_t j = 0; j < columns.size(); ++j) {
    if (columns[j].size() != m) {
      return Status::InvalidArgument("ShareColumns: ragged columns");
    }
    SQM_ASSIGN_OR_RETURN(
        SharedVector column,
        protocol_->ShareFromParty(j, Field::EncodeVector(columns[j])));
    shared.push_back(std::move(column));
  }
  return shared;
}

Result<std::vector<int64_t>> SecureOps::NoisySum(
    const std::vector<std::vector<int64_t>>& contributions,
    const std::vector<std::vector<int64_t>>& noise_per_client) {
  const size_t parties = protocol_->num_parties();
  if (contributions.size() != parties ||
      noise_per_client.size() != parties) {
    return Status::InvalidArgument(
        "NoisySum: need one contribution and one noise vector per party");
  }
  const size_t d = contributions[0].size();
  SharedVector total(parties, d);
  for (size_t j = 0; j < parties; ++j) {
    if (contributions[j].size() != d || noise_per_client[j].size() != d) {
      return Status::InvalidArgument("NoisySum: ragged inputs");
    }
    // Each party inputs its contribution already perturbed by its own
    // noise share — one sharing per party, as in Algorithm 1.
    std::vector<int64_t> noisy = contributions[j];
    for (size_t t = 0; t < d; ++t) noisy[t] += noise_per_client[j][t];
    SQM_ASSIGN_OR_RETURN(
        const SharedVector share,
        protocol_->ShareFromParty(j, Field::EncodeVector(noisy)));
    SQM_ASSIGN_OR_RETURN(total, protocol_->Add(total, share));
  }
  return protocol_->OpenSigned(total);
}

Result<std::vector<int64_t>> SecureOps::NoisyCovarianceUpper(
    const std::vector<std::vector<int64_t>>& columns,
    const std::vector<std::vector<int64_t>>& noise_per_client) {
  const size_t n = protocol_->num_parties();
  if (columns.size() != n) {
    return Status::InvalidArgument(
        "NoisyCovarianceUpper: one column per client required");
  }
  const size_t m = columns[0].size();
  const size_t d = n * (n + 1) / 2;
  if (noise_per_client.size() != n) {
    return Status::InvalidArgument(
        "NoisyCovarianceUpper: one noise vector per client required");
  }
  for (const auto& noise : noise_per_client) {
    if (noise.size() != d) {
      return Status::InvalidArgument(
          "NoisyCovarianceUpper: noise must have n(n+1)/2 entries");
    }
  }

  SQM_ASSIGN_OR_RETURN(const std::vector<SharedVector> cols,
                       ShareColumns(columns));

  // Batch every pair product (i <= j, all m records) into one Mul round.
  SharedVector lhs(n, d * m);
  SharedVector rhs(n, d * m);
  {
    size_t offset = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i; j < n; ++j) {
        for (size_t party = 0; party < n; ++party) {
          const auto& ci = cols[i].shares(party);
          const auto& cj = cols[j].shares(party);
          auto& l = lhs.shares(party);
          auto& r = rhs.shares(party);
          for (size_t rrow = 0; rrow < m; ++rrow) {
            l[offset + rrow] = ci[rrow];
            r[offset + rrow] = cj[rrow];
          }
        }
        offset += m;
      }
    }
  }
  SQM_ASSIGN_OR_RETURN(const SharedVector products,
                       protocol_->Mul(std::move(lhs), std::move(rhs)));

  // Local per-pair summation over the m records.
  SharedVector gram(n, d);
  for (size_t party = 0; party < n; ++party) {
    const auto& prod = products.shares(party);
    auto& out = gram.shares(party);
    for (size_t pair = 0; pair < d; ++pair) {
      out[pair] = Field::SumVec(prod.data() + pair * m, m);
    }
  }

  // Add the clients' noise shares (one sharing round per client).
  for (size_t j = 0; j < n; ++j) {
    SQM_ASSIGN_OR_RETURN(const SharedVector noise,
                         protocol_->ShareFromParty(
                             j, Field::EncodeVector(noise_per_client[j])));
    SQM_ASSIGN_OR_RETURN(gram, protocol_->Add(gram, noise));
  }
  return protocol_->OpenSigned(gram);
}

Result<std::vector<int64_t>> SecureOps::NoisyLogisticGradient(
    const LogisticGradientInputs& inputs) {
  const size_t parties = protocol_->num_parties();
  const size_t d = inputs.feature_columns.size();
  if (parties != d + 1) {
    return Status::InvalidArgument(
        "NoisyLogisticGradient: need d feature clients + 1 label client");
  }
  const size_t m = inputs.labels.size();
  for (const auto& col : inputs.feature_columns) {
    if (col.size() != m) {
      return Status::InvalidArgument(
          "NoisyLogisticGradient: ragged feature columns");
    }
  }
  if (inputs.weights.size() != d) {
    return Status::InvalidArgument(
        "NoisyLogisticGradient: weights must have d entries");
  }
  if (inputs.noise_per_client.size() != parties) {
    return Status::InvalidArgument(
        "NoisyLogisticGradient: one noise vector per party required");
  }
  for (const auto& noise : inputs.noise_per_client) {
    if (noise.size() != d) {
      return Status::InvalidArgument(
          "NoisyLogisticGradient: noise must have d entries");
    }
  }

  // Share the private inputs: feature columns from clients 0..d-1, labels
  // from the label client d.
  std::vector<std::vector<int64_t>> columns = inputs.feature_columns;
  columns.push_back(inputs.labels);
  SQM_ASSIGN_OR_RETURN(std::vector<SharedVector> x_cols,
                       ShareColumns(columns));
  const SharedVector y = std::move(x_cols.back());
  x_cols.pop_back();

  // u_i = sum_j w-hat[j] * x-hat_{i,j}: public weights => local on shares.
  SharedVector u(parties, m);
  for (size_t j = 0; j < d; ++j) {
    const SharedVector scaled =
        protocol_->ScaleConst(x_cols[j], Field::Encode(inputs.weights[j]));
    SQM_ASSIGN_OR_RETURN(u, protocol_->Add(u, scaled));
  }

  // One batched multiplication round covering both product families:
  //   block 0..d-1   : u_i * x_{i,t}
  //   block d..2d-1  : y_i * x_{i,t}
  SharedVector lhs(parties, 2 * d * m);
  SharedVector rhs(parties, 2 * d * m);
  for (size_t party = 0; party < parties; ++party) {
    const auto& u_sh = u.shares(party);
    const auto& y_sh = y.shares(party);
    auto& l = lhs.shares(party);
    auto& r = rhs.shares(party);
    for (size_t t = 0; t < d; ++t) {
      const auto& x_sh = x_cols[t].shares(party);
      for (size_t i = 0; i < m; ++i) {
        l[t * m + i] = u_sh[i];
        r[t * m + i] = x_sh[i];
        l[(d + t) * m + i] = y_sh[i];
        r[(d + t) * m + i] = x_sh[i];
      }
    }
  }
  SQM_ASSIGN_OR_RETURN(const SharedVector products,
                       protocol_->Mul(std::move(lhs), std::move(rhs)));

  // grad[t] = sum_i (c-hat x_{i,t} + (u x)_{i,t} + l-hat (y x)_{i,t}).
  const Field::Element c_hat = Field::Encode(inputs.half_coefficient);
  const Field::Element l_hat = Field::Encode(inputs.label_coefficient);
  const Field::Element weights[3] = {c_hat, 1, l_hat};
  SharedVector grad(parties, d);
  std::vector<Field::Element> row(m);
  for (size_t party = 0; party < parties; ++party) {
    const auto& prod = products.shares(party);
    auto& out = grad.shares(party);
    for (size_t t = 0; t < d; ++t) {
      const Field::Element* terms[3] = {x_cols[t].shares(party).data(),
                                        prod.data() + t * m,
                                        prod.data() + (d + t) * m};
      Field::LinearCombination(terms, weights, 3, row.data(), m);
      out[t] = Field::SumVec(row.data(), m);
    }
  }

  // Inject the per-client noise shares.
  for (size_t j = 0; j < parties; ++j) {
    SQM_ASSIGN_OR_RETURN(
        const SharedVector noise,
        protocol_->ShareFromParty(
            j, Field::EncodeVector(inputs.noise_per_client[j])));
    SQM_ASSIGN_OR_RETURN(grad, protocol_->Add(grad, noise));
  }
  return protocol_->OpenSigned(grad);
}


Result<std::vector<int64_t>> SecureOps::NoisyLinearGradient(
    const LinearGradientInputs& inputs) {
  const size_t parties = protocol_->num_parties();
  const size_t d = inputs.feature_columns.size();
  if (parties != d + 1) {
    return Status::InvalidArgument(
        "NoisyLinearGradient: need d feature clients + 1 target client");
  }
  const size_t m = inputs.targets.size();
  for (const auto& col : inputs.feature_columns) {
    if (col.size() != m) {
      return Status::InvalidArgument(
          "NoisyLinearGradient: ragged feature columns");
    }
  }
  if (inputs.weights.size() != d ||
      inputs.noise_per_client.size() != parties) {
    return Status::InvalidArgument(
        "NoisyLinearGradient: weights must have d entries and noise one "
        "vector per party");
  }
  for (const auto& noise : inputs.noise_per_client) {
    if (noise.size() != d) {
      return Status::InvalidArgument(
          "NoisyLinearGradient: noise must have d entries");
    }
  }

  std::vector<std::vector<int64_t>> columns = inputs.feature_columns;
  columns.push_back(inputs.targets);
  SQM_ASSIGN_OR_RETURN(std::vector<SharedVector> x_cols,
                       ShareColumns(columns));
  const SharedVector y = std::move(x_cols.back());
  x_cols.pop_back();

  // u_i = <w-hat, x-hat_i>: local, public weights.
  SharedVector u(parties, m);
  for (size_t j = 0; j < d; ++j) {
    const SharedVector scaled =
        protocol_->ScaleConst(x_cols[j], Field::Encode(inputs.weights[j]));
    SQM_ASSIGN_OR_RETURN(u, protocol_->Add(u, scaled));
  }

  // One batched round: blocks [u * x_t] and [y * x_t].
  SharedVector lhs(parties, 2 * d * m);
  SharedVector rhs(parties, 2 * d * m);
  for (size_t party = 0; party < parties; ++party) {
    const auto& u_sh = u.shares(party);
    const auto& y_sh = y.shares(party);
    auto& l = lhs.shares(party);
    auto& r = rhs.shares(party);
    for (size_t t = 0; t < d; ++t) {
      const auto& x_sh = x_cols[t].shares(party);
      for (size_t i = 0; i < m; ++i) {
        l[t * m + i] = u_sh[i];
        r[t * m + i] = x_sh[i];
        l[(d + t) * m + i] = y_sh[i];
        r[(d + t) * m + i] = x_sh[i];
      }
    }
  }
  SQM_ASSIGN_OR_RETURN(const SharedVector products,
                       protocol_->Mul(std::move(lhs), std::move(rhs)));

  const Field::Element t_hat = Field::Encode(inputs.target_coefficient);
  const Field::Element weights[2] = {1, t_hat};
  SharedVector grad(parties, d);
  std::vector<Field::Element> row(m);
  for (size_t party = 0; party < parties; ++party) {
    const auto& prod = products.shares(party);
    auto& out = grad.shares(party);
    for (size_t t = 0; t < d; ++t) {
      const Field::Element* terms[2] = {prod.data() + t * m,
                                        prod.data() + (d + t) * m};
      Field::LinearCombination(terms, weights, 2, row.data(), m);
      out[t] = Field::SumVec(row.data(), m);
    }
  }
  for (size_t j = 0; j < parties; ++j) {
    SQM_ASSIGN_OR_RETURN(
        const SharedVector noise,
        protocol_->ShareFromParty(
            j, Field::EncodeVector(inputs.noise_per_client[j])));
    SQM_ASSIGN_OR_RETURN(grad, protocol_->Add(grad, noise));
  }
  return protocol_->OpenSigned(grad);
}

}  // namespace sqm
