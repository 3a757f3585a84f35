#ifndef SQM_MATH_LINALG_H_
#define SQM_MATH_LINALG_H_

#include <vector>

#include "math/matrix.h"

namespace sqm {

/// Dense linear-algebra kernels on Matrix. These back both the plaintext
/// baselines and the reference values the MPC layer is checked against.

/// C = A * B. Dies if inner dimensions mismatch.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// Gram matrix X^T X — the covariance polynomial f(x) = x^T x summed over
/// records, i.e. the PCA target function of Section V-A.
Matrix Gram(const Matrix& x);

/// Inner product <u, v>.
double Dot(const std::vector<double>& u, const std::vector<double>& v);

/// L2 norm of v.
double Norm2(const std::vector<double>& v);

/// Frobenius norm of A.
double FrobeniusNorm(const Matrix& a);

/// Scales v in place so that ||v||_2 <= max_norm (no-op if already within).
/// This is the gradient/weight clipping primitive of DPSGD and the LR loop.
void ClipNorm(std::vector<double>& v, double max_norm);

/// ||X V||_F^2 — the captured-variance utility metric the paper reports for
/// PCA (Figure 2).
double CapturedVariance(const Matrix& x, const Matrix& v);

/// Orthonormalizes the columns of `a` in place (modified Gram-Schmidt).
/// Returns the number of linearly independent columns kept; dependent
/// columns are replaced with zeros.
size_t OrthonormalizeColumns(Matrix& a);

}  // namespace sqm

#endif  // SQM_MATH_LINALG_H_
