#include "mpc/ops.h"

#include <string>

#include "mpc/field.h"

namespace sqm {
namespace {

using WireId = Circuit::WireId;

/// Declares `values.size()` inputs of `party` and appends the values to its
/// input vector, so wires and inputs stay in declaration order.
std::vector<WireId> AddInputs(StructuredCircuit* out, size_t party,
                              const std::vector<int64_t>& values) {
  std::vector<WireId> wires;
  wires.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    wires.push_back(out->circuit.AddInput(party));
  }
  std::vector<int64_t>& inputs = out->inputs[party];
  inputs.insert(inputs.end(), values.begin(), values.end());
  return wires;
}

/// Checks that `vectors` holds `count` vectors of `size` entries each.
Status CheckShape(const char* op, const char* what,
                  const std::vector<std::vector<int64_t>>& vectors,
                  size_t count, size_t size) {
  bool ok = vectors.size() == count;
  for (const auto& v : vectors) ok = ok && v.size() == size;
  if (ok) return Status::OK();
  return Status::InvalidArgument(std::string(op) + ": need " +
                                 std::to_string(count) + " " + what + " of " +
                                 std::to_string(size) + " entries");
}

}  // namespace

Result<StructuredCircuit> NoisySum(
    const std::vector<std::vector<int64_t>>& contributions,
    const std::vector<std::vector<int64_t>>& noise_per_client) {
  const size_t parties = contributions.size();
  if (parties == 0) {
    return Status::InvalidArgument("NoisySum: no contributions");
  }
  const size_t d = contributions[0].size();
  SQM_RETURN_NOT_OK(
      CheckShape("NoisySum", "contributions", contributions, parties, d));
  SQM_RETURN_NOT_OK(
      CheckShape("NoisySum", "noise vectors", noise_per_client, parties, d));

  StructuredCircuit out;
  out.inputs.resize(parties);
  std::vector<std::vector<WireId>> terms;
  for (size_t j = 0; j < parties; ++j) {
    terms.push_back(AddInputs(&out, j, contributions[j]));
    terms.push_back(AddInputs(&out, j, noise_per_client[j]));
  }
  for (size_t t = 0; t < d; ++t) {
    WireId acc = terms[0][t];
    for (size_t k = 1; k < terms.size(); ++k) {
      acc = out.circuit.AddAdd(acc, terms[k][t]);
    }
    out.circuit.MarkOutput(acc);
  }
  return out;
}

Result<StructuredCircuit> NoisyCovarianceUpper(
    const std::vector<std::vector<int64_t>>& columns,
    const std::vector<std::vector<int64_t>>& noise_per_client) {
  const size_t n = columns.size();
  if (n == 0 || columns[0].empty()) {
    return Status::InvalidArgument("NoisyCovarianceUpper: no data");
  }
  const size_t m = columns[0].size();
  const size_t pairs = n * (n + 1) / 2;
  SQM_RETURN_NOT_OK(
      CheckShape("NoisyCovarianceUpper", "columns", columns, n, m));
  SQM_RETURN_NOT_OK(CheckShape("NoisyCovarianceUpper", "noise vectors",
                               noise_per_client, n, pairs));

  StructuredCircuit out;
  out.inputs.resize(n);
  std::vector<std::vector<WireId>> x(n);
  std::vector<std::vector<WireId>> noise(n);
  for (size_t j = 0; j < n; ++j) {
    x[j] = AddInputs(&out, j, columns[j]);
    noise[j] = AddInputs(&out, j, noise_per_client[j]);
  }
  // Every pair product of every record sits in the one Mul level; the
  // per-pair sums over records and the noise shares are local.
  Circuit& c = out.circuit;
  size_t pair = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j, ++pair) {
      WireId acc = c.AddMul(x[i][0], x[j][0]);
      for (size_t r = 1; r < m; ++r) {
        acc = c.AddAdd(acc, c.AddMul(x[i][r], x[j][r]));
      }
      for (size_t client = 0; client < n; ++client) {
        acc = c.AddAdd(acc, noise[client][pair]);
      }
      c.MarkOutput(acc);
    }
  }
  return out;
}

Result<StructuredCircuit> NoisyStructuredGradient(
    const StructuredGradientInputs& inputs) {
  const size_t d = inputs.feature_columns.size();
  const size_t m = inputs.labels.size();
  if (d == 0 || m == 0) {
    return Status::InvalidArgument(
        "NoisyStructuredGradient: need d >= 1 feature columns and m >= 1 "
        "records");
  }
  SQM_RETURN_NOT_OK(CheckShape("NoisyStructuredGradient", "feature columns",
                               inputs.feature_columns, d, m));
  SQM_RETURN_NOT_OK(CheckShape("NoisyStructuredGradient", "weight vectors",
                               {inputs.weights}, 1, d));
  SQM_RETURN_NOT_OK(CheckShape("NoisyStructuredGradient", "noise vectors",
                               inputs.noise_per_client, d + 1, d));

  StructuredCircuit out;
  out.inputs.resize(d + 1);
  std::vector<std::vector<WireId>> x(d);
  std::vector<std::vector<WireId>> noise(d + 1);
  for (size_t j = 0; j < d; ++j) {
    x[j] = AddInputs(&out, j, inputs.feature_columns[j]);
    noise[j] = AddInputs(&out, j, inputs.noise_per_client[j]);
  }
  const std::vector<WireId> y = AddInputs(&out, d, inputs.labels);
  noise[d] = AddInputs(&out, d, inputs.noise_per_client[d]);

  // v_i = c-hat + <w-hat, x_i> + l-hat y_i: public coefficients, so local.
  Circuit& c = out.circuit;
  const WireId half = c.AddConstant(Field::Encode(inputs.half_coefficient));
  const Field::Element label = Field::Encode(inputs.label_coefficient);
  std::vector<WireId> v(m);
  for (size_t i = 0; i < m; ++i) {
    WireId acc = c.AddAdd(half, c.AddMulConst(y[i], label));
    for (size_t j = 0; j < d; ++j) {
      acc = c.AddAdd(acc,
                     c.AddMulConst(x[j][i], Field::Encode(inputs.weights[j])));
    }
    v[i] = acc;
  }
  // g[t] = sum_i v_i x_{i,t} + sum_c Z_c[t]: the m*d products are one level.
  for (size_t t = 0; t < d; ++t) {
    WireId acc = c.AddMul(v[0], x[t][0]);
    for (size_t i = 1; i < m; ++i) {
      acc = c.AddAdd(acc, c.AddMul(v[i], x[t][i]));
    }
    for (size_t client = 0; client <= d; ++client) {
      acc = c.AddAdd(acc, noise[client][t]);
    }
    c.MarkOutput(acc);
  }
  return out;
}

}  // namespace sqm
