#include "math/linalg.h"

#include <gtest/gtest.h>

#include <cmath>

namespace sqm {
namespace {

TEST(LinalgTest, MatMulSmall) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  EXPECT_EQ(MatMul(a, b), (Matrix{{19, 22}, {43, 50}}));
}

TEST(LinalgTest, MatMulIdentity) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(MatMul(a, Matrix::Identity(3)), a);
  EXPECT_EQ(MatMul(Matrix::Identity(2), a), a);
}

TEST(LinalgTest, GramEqualsTransposeProduct) {
  Matrix x{{1, 2, 0}, {0, 1, 3}, {-1, 0.5, 2}};
  const Matrix gram = Gram(x);
  const Matrix reference = MatMul(x.Transpose(), x);
  ASSERT_EQ(gram.rows(), reference.rows());
  for (size_t i = 0; i < gram.rows(); ++i)
    for (size_t j = 0; j < gram.cols(); ++j)
      EXPECT_NEAR(gram(i, j), reference(i, j), 1e-12);
}

TEST(LinalgTest, GramIsSymmetric) {
  Matrix x{{1.5, -2, 0.25}, {3, 0, 1}};
  const Matrix gram = Gram(x);
  for (size_t i = 0; i < gram.rows(); ++i)
    for (size_t j = 0; j < gram.cols(); ++j)
      EXPECT_DOUBLE_EQ(gram(i, j), gram(j, i));
}

TEST(LinalgTest, DotAndNorms) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
}

TEST(LinalgTest, FrobeniusNorm) {
  Matrix a{{3, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(FrobeniusNorm(a), 5.0);
}

TEST(LinalgTest, ClipNormScalesDown) {
  std::vector<double> v{3, 4};
  ClipNorm(v, 1.0);
  EXPECT_NEAR(Norm2(v), 1.0, 1e-12);
  EXPECT_NEAR(v[0] / v[1], 0.75, 1e-12);  // Direction preserved.
}

TEST(LinalgTest, ClipNormNoOpWithinBound) {
  std::vector<double> v{0.3, 0.4};
  ClipNorm(v, 1.0);
  EXPECT_DOUBLE_EQ(v[0], 0.3);
  EXPECT_DOUBLE_EQ(v[1], 0.4);
}

TEST(LinalgTest, CapturedVarianceOfFullBasisIsTotalEnergy) {
  Matrix x{{1, 2}, {3, 4}, {5, 6}};
  const double total = std::pow(FrobeniusNorm(x), 2);
  EXPECT_NEAR(CapturedVariance(x, Matrix::Identity(2)), total, 1e-9);
}

TEST(LinalgTest, OrthonormalizeProducesOrthonormalColumns) {
  Matrix a{{1, 1}, {1, 0}, {0, 1}};
  EXPECT_EQ(OrthonormalizeColumns(a), 2u);
  const std::vector<double> c0 = a.Col(0);
  const std::vector<double> c1 = a.Col(1);
  EXPECT_NEAR(Norm2(c0), 1.0, 1e-12);
  EXPECT_NEAR(Norm2(c1), 1.0, 1e-12);
  EXPECT_NEAR(Dot(c0, c1), 0.0, 1e-12);
}

TEST(LinalgTest, OrthonormalizeDetectsDependentColumns) {
  Matrix a{{1, 2}, {2, 4}, {3, 6}};  // Second column = 2 * first.
  EXPECT_EQ(OrthonormalizeColumns(a), 1u);
  EXPECT_NEAR(Norm2(a.Col(1)), 0.0, 1e-12);
}

}  // namespace
}  // namespace sqm
