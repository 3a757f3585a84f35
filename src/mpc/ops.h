#ifndef SQM_MPC_OPS_H_
#define SQM_MPC_OPS_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "mpc/circuit.h"

namespace sqm {

/// Structured secure operations as circuits for BgwEngine::Evaluate — the
/// evaluation strategies behind the paper's Table I complexities. The
/// generic SQM path (core/sqm.h) expands the LR gradient into O(m n^2)
/// product gates; here public weights become MulConst gates, so only m*d
/// products remain, in one level (the paper's O(m (n-1)) LR row). The
/// covariance likewise puts all m * n(n+1)/2 pair products in one level.
///
/// The builders assume the paper's partitioning: client j owns column j,
/// plus — for LR — a label client owning the labels. Each client's noise
/// share is its last inputs, so it rides that client's input round.
struct StructuredCircuit {
  Circuit circuit;
  /// [party] its private inputs as SqmPlan::CircuitInputs lays them out:
  /// its columns, then its noise share.
  std::vector<std::vector<int64_t>> inputs;
};

/// out[t] = sum_j contributions[j][t] + sum_j noise[j][t], with one
/// contribution and one noise vector per party. No multiplications.
Result<StructuredCircuit> NoisySum(
    const std::vector<std::vector<int64_t>>& contributions,
    const std::vector<std::vector<int64_t>>& noise_per_client);

/// Noisy quantized covariance, upper triangle in row-major (i, j >= i)
/// order: out[(i,j)] = sum_r X[r,i] X[r,j] + sum_c noise[c][(i,j)].
/// `columns[j]` is client j's quantized column (m entries); noise shares
/// have n(n+1)/2 entries per client. One multiplication level.
Result<StructuredCircuit> NoisyCovarianceUpper(
    const std::vector<std::vector<int64_t>>& columns,
    const std::vector<std::vector<int64_t>>& noise_per_client);

/// Inputs for a structured gradient release. Logistic regression (Eq. 9
/// quantized as in Lemma 7): data scaled by gamma, weights pre-scaled by
/// gamma * w/4, the 1/2 coefficient by gamma^2 / 2, the label coefficient
/// by -gamma. With half_coefficient = 0 it is the logistic gradient without
/// its c x term.
struct StructuredGradientInputs {
  /// d feature columns; client j owns column j (each m entries).
  std::vector<std::vector<int64_t>> feature_columns;
  /// Quantized labels, owned by the label client (party index d).
  std::vector<int64_t> labels;
  /// Public quantized weights w-hat[j].
  std::vector<int64_t> weights;
  /// Public quantized coefficient c-hat ~ gamma^2 / 2.
  int64_t half_coefficient = 0;
  /// Public quantized label coefficient l-hat ~ -gamma.
  int64_t label_coefficient = 0;
  /// Per-client Skellam noise shares, d entries each; one vector per
  /// party (d feature clients + 1 label client).
  std::vector<std::vector<int64_t>> noise_per_client;
};

/// The noisy quantized gradient sum
///   g[t] = sum_i v_i x-hat_{i,t} + sum_c Z_c[t],
///   v_i = c-hat + sum_j w-hat[j] x-hat_{i,j} + l-hat y-hat_i,
/// with v_i local on shares and one level of m*d secure products — versus
/// the expanded circuit's O(m d^2).
Result<StructuredCircuit> NoisyStructuredGradient(
    const StructuredGradientInputs& inputs);

}  // namespace sqm

#endif  // SQM_MPC_OPS_H_
