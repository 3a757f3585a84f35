#include "math/linalg.h"

#include <cmath>

#include "core/logging.h"

namespace sqm {

Matrix MatMul(const Matrix& a, const Matrix& b) {
  SQM_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop contiguous in both B and C.
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

Matrix Gram(const Matrix& x) {
  const size_t n = x.cols();
  Matrix c(n, n);
  // Accumulate rank-1 updates x_i^T x_i; exploit symmetry.
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t i = 0; i < n; ++i) {
      const double xi = x(r, i);
      if (xi == 0.0) continue;
      for (size_t j = i; j < n; ++j) {
        c(i, j) += xi * x(r, j);
      }
    }
  }
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
  return c;
}

double Dot(const std::vector<double>& u, const std::vector<double>& v) {
  SQM_CHECK(u.size() == v.size());
  double acc = 0.0;
  for (size_t i = 0; i < u.size(); ++i) acc += u[i] * v[i];
  return acc;
}

double Norm2(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

double FrobeniusNorm(const Matrix& a) {
  double acc = 0.0;
  for (double x : a.data()) acc += x * x;
  return std::sqrt(acc);
}

void ClipNorm(std::vector<double>& v, double max_norm) {
  SQM_CHECK(max_norm > 0.0);
  const double norm = Norm2(v);
  if (norm > max_norm) {
    const double scale = max_norm / norm;
    for (auto& x : v) x *= scale;
  }
}

double CapturedVariance(const Matrix& x, const Matrix& v) {
  return std::pow(FrobeniusNorm(MatMul(x, v)), 2.0);
}

size_t OrthonormalizeColumns(Matrix& a) {
  const size_t n = a.rows();
  const size_t k = a.cols();
  size_t kept = 0;
  for (size_t j = 0; j < k; ++j) {
    std::vector<double> col = a.Col(j);
    for (size_t p = 0; p < j; ++p) {
      const std::vector<double> prev = a.Col(p);
      const double proj = Dot(col, prev);
      for (size_t i = 0; i < n; ++i) col[i] -= proj * prev[i];
    }
    const double norm = Norm2(col);
    if (norm < 1e-12) {
      std::fill(col.begin(), col.end(), 0.0);
    } else {
      for (auto& x : col) x /= norm;
      ++kept;
    }
    a.SetCol(j, col);
  }
  return kept;
}

}  // namespace sqm
