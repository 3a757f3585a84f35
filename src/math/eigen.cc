#include "math/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "math/linalg.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

Status CheckSymmetric(const Matrix& a, double tol) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("matrix is not square");
  }
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = i + 1; j < a.cols(); ++j) {
      const double scale =
          std::max(1.0, std::fabs(a(i, j)) + std::fabs(a(j, i)));
      if (std::fabs(a(i, j) - a(j, i)) > tol * scale) {
        return Status::InvalidArgument("matrix is not symmetric");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<EigenDecomposition> JacobiEigenSymmetric(const Matrix& a,
                                                double symmetry_tol) {
  SQM_RETURN_NOT_OK(CheckSymmetric(a, symmetry_tol));
  const size_t n = a.rows();
  Matrix d = a;                      // Working copy driven to diagonal form.
  Matrix v = Matrix::Identity(n);    // Accumulated rotations.

  constexpr size_t kMaxSweeps = 100;
  for (size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    // Off-diagonal mass; stop when numerically diagonal.
    double off = 0.0;
    for (size_t i = 0; i < n; ++i)
      for (size_t j = i + 1; j < n; ++j) off += d(i, j) * d(i, j);
    if (off < 1e-24) break;

    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::fabs(apq) < 1e-30) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // Smaller-magnitude root of t^2 + 2*theta*t - 1 = 0.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) +
                          std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the rotation to rows/columns p and q of D.
        for (size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        // Accumulate the rotation into the eigenvector matrix.
        for (size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = d(i, i);
  std::sort(order.begin(), order.end(),
            [&diag](size_t i, size_t j) { return diag[i] > diag[j]; });

  EigenDecomposition result;
  result.values.resize(n);
  result.vectors = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    result.values[j] = diag[order[j]];
    for (size_t i = 0; i < n; ++i) result.vectors(i, j) = v(i, order[j]);
  }
  return result;
}

Result<Matrix> TopKEigenvectors(const Matrix& a, size_t k,
                                const TopKOptions& options) {
  SQM_RETURN_NOT_OK(CheckSymmetric(a, 1e-6));
  const size_t n = a.rows();
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k must be in [1, n]");
  }

  // Shift so the matrix is positive definite: eigenvalues of A + s*I are
  // lambda_i + s > 0 because |lambda_i| <= ||A||_F <= s. Subspace iteration
  // on the shifted matrix then converges to the *algebraically* largest
  // eigenvectors of A, which is what PCA needs even when the noisy
  // covariance estimate is indefinite.
  const double shift = FrobeniusNorm(a) + 1.0;
  Matrix shifted = a;
  for (size_t i = 0; i < n; ++i) shifted(i, i) += shift;

  Rng rng(options.seed);
  Matrix q(n, k);
  for (auto& x : q.data()) x = rng.NextDouble() - 0.5;
  OrthonormalizeColumns(q);

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    Matrix z = MatMul(shifted, q);
    OrthonormalizeColumns(z);
    // Convergence: subspace distance via ||Q_new - Q_old * (Q_old^T Q_new)||.
    Matrix overlap = MatMul(q.Transpose(), z);
    Matrix residual = z - MatMul(q, overlap);
    q = std::move(z);
    if (FrobeniusNorm(residual) < options.tolerance) break;
  }
  return q;
}

}  // namespace sqm
