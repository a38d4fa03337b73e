#include "linalg/symmetric_eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::linalg {
namespace {

DenseMatrix random_symmetric(std::size_t n, Rng& rng) {
  DenseMatrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

void expect_valid_decomposition(const DenseMatrix& a,
                                const SymmetricEigenResult& eigen,
                                double tol) {
  const std::size_t n = a.rows();
  ASSERT_EQ(eigen.eigenvalues.size(), n);

  // Ascending eigenvalues.
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_LE(eigen.eigenvalues[i - 1], eigen.eigenvalues[i] + tol);
  }

  // A v = lambda v per column.
  std::vector<double> v(n);
  std::vector<double> av(n);
  for (std::size_t col = 0; col < n; ++col) {
    for (std::size_t i = 0; i < n; ++i) v[i] = eigen.eigenvectors(i, col);
    a.matvec(v, av);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], eigen.eigenvalues[col] * v[i], tol)
          << "column " << col;
    }
  }

  // Orthonormal columns.
  for (std::size_t c1 = 0; c1 < n; ++c1) {
    for (std::size_t c2 = c1; c2 < n; ++c2) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += eigen.eigenvectors(i, c1) * eigen.eigenvectors(i, c2);
      }
      EXPECT_NEAR(acc, c1 == c2 ? 1.0 : 0.0, tol);
    }
  }
}

TEST(SymmetricEigen, OneByOne) {
  DenseMatrix a(1, 1);
  a(0, 0) = 4.2;
  const auto eigen = symmetric_eigen(a);
  ASSERT_EQ(eigen.eigenvalues.size(), 1u);
  EXPECT_NEAR(eigen.eigenvalues[0], 4.2, 1e-12);
  EXPECT_NEAR(std::abs(eigen.eigenvectors(0, 0)), 1.0, 1e-12);
}

TEST(SymmetricEigen, KnownTwoByTwo) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  const auto eigen = symmetric_eigen(a);
  EXPECT_NEAR(eigen.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, DiagonalMatrixReturnsSortedDiagonal) {
  DenseMatrix a(3, 3, 0.0);
  a(0, 0) = 5.0;
  a(1, 1) = -1.0;
  a(2, 2) = 2.0;
  const auto eigen = symmetric_eigen(a);
  EXPECT_NEAR(eigen.eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[2], 5.0, 1e-12);
}

TEST(SymmetricEigen, RejectsNonSquareAndNonSymmetric) {
  EXPECT_THROW(symmetric_eigen(DenseMatrix(2, 3)), dasc::InvalidArgument);
  DenseMatrix a(2, 2, 0.0);
  a(0, 1) = 1.0;  // not mirrored
  EXPECT_THROW(symmetric_eigen(a), dasc::InvalidArgument);
}

TEST(SymmetricEigen, TraceEqualsEigenvalueSum) {
  Rng rng(41);
  const DenseMatrix a = random_symmetric(12, rng);
  const auto eigen = symmetric_eigen(a);
  double trace = 0.0;
  for (std::size_t i = 0; i < 12; ++i) trace += a(i, i);
  double sum = 0.0;
  for (double v : eigen.eigenvalues) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(SymmetricEigen, PsdMatrixHasNonNegativeEigenvalues) {
  // A = B^T B is PSD, like the landmark block W the Nystrom factor
  // decomposes.
  Rng rng(59);
  DenseMatrix b(8, 8, 0.0);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  const DenseMatrix a = b.transposed().multiply(b);
  const auto eigen = symmetric_eigen(a);
  for (double v : eigen.eigenvalues) EXPECT_GE(v, -1e-9);
}

class SymmetricEigenSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymmetricEigenSizes, RandomMatrixDecomposition) {
  Rng rng(100 + GetParam());
  const DenseMatrix a = random_symmetric(GetParam(), rng);
  const auto eigen = symmetric_eigen(a);
  expect_valid_decomposition(a, eigen, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenSizes,
                         ::testing::Values(2, 3, 5, 8, 16, 33, 64));

TEST(TridiagonalEigen, MatchesDenseOnTridiagonalMatrix) {
  const std::vector<double> d{2.0, 3.0, 4.0, 5.0};
  const std::vector<double> e{1.0, 0.5, -0.25};
  DenseMatrix a(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) a(i, i) = d[i];
  for (std::size_t i = 0; i < 3; ++i) {
    a(i, i + 1) = e[i];
    a(i + 1, i) = e[i];
  }
  const auto tri = tridiagonal_eigen(d, e);
  const auto dense = symmetric_eigen(a);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(tri.eigenvalues[i], dense.eigenvalues[i], 1e-10);
  }
  expect_valid_decomposition(a, tri, 1e-9);
}

TEST(TridiagonalEigen, RejectsBadSubdiagonalLength) {
  EXPECT_THROW(tridiagonal_eigen({1.0, 2.0}, {1.0, 1.0}),
               dasc::InvalidArgument);
}

TEST(TridiagonalEigen, HandlesEmptyAndSingle) {
  const auto empty = tridiagonal_eigen({}, {});
  EXPECT_TRUE(empty.eigenvalues.empty());
  const auto single = tridiagonal_eigen({7.0}, {});
  ASSERT_EQ(single.eigenvalues.size(), 1u);
  EXPECT_DOUBLE_EQ(single.eigenvalues[0], 7.0);
}

}  // namespace
}  // namespace dasc::linalg
