#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dasc::linalg {
namespace {

DenseMatrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  DenseMatrix a(m, n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  return a;
}

void expect_valid_svd(const DenseMatrix& a, const SvdResult& svd,
                      double tol) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Descending non-negative singular values.
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_GE(svd.singular_values[j], 0.0);
    if (j > 0) {
      EXPECT_LE(svd.singular_values[j], svd.singular_values[j - 1] + tol);
    }
  }

  // Reconstruction: A = U diag(s) V^T.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += svd.u(i, k) * svd.singular_values[k] * svd.v(j, k);
      }
      EXPECT_NEAR(acc, a(i, j), tol);
    }
  }

  // Orthonormal columns of U (nonzero ones) and orthogonal V.
  for (std::size_t c1 = 0; c1 < n; ++c1) {
    for (std::size_t c2 = c1; c2 < n; ++c2) {
      double uu = 0.0;
      double vv = 0.0;
      for (std::size_t i = 0; i < m; ++i) uu += svd.u(i, c1) * svd.u(i, c2);
      for (std::size_t i = 0; i < n; ++i) vv += svd.v(i, c1) * svd.v(i, c2);
      if (c1 == c2) {
        if (svd.singular_values[c1] > tol) {
          EXPECT_NEAR(uu, 1.0, tol);
        }
        EXPECT_NEAR(vv, 1.0, tol);
      } else {
        EXPECT_NEAR(uu, 0.0, tol);
        EXPECT_NEAR(vv, 0.0, tol);
      }
    }
  }
}

TEST(JacobiSvd, DiagonalMatrix) {
  DenseMatrix a(3, 3, 0.0);
  a(0, 0) = 2.0;
  a(1, 1) = -5.0;  // sign goes into the factors
  a(2, 2) = 1.0;
  const SvdResult svd = jacobi_svd(a);
  EXPECT_NEAR(svd.singular_values[0], 5.0, 1e-12);
  EXPECT_NEAR(svd.singular_values[1], 2.0, 1e-12);
  EXPECT_NEAR(svd.singular_values[2], 1.0, 1e-12);
  expect_valid_svd(a, svd, 1e-10);
}

class JacobiSvdShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(JacobiSvdShapes, RandomMatrixDecomposition) {
  const auto [m, n] = GetParam();
  Rng rng(1000 + m * 31 + n);
  const DenseMatrix a = random_matrix(m, n, rng);
  const SvdResult svd = jacobi_svd(a);
  expect_valid_svd(a, svd, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JacobiSvdShapes,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 1),
                      std::make_pair<std::size_t, std::size_t>(4, 4),
                      std::make_pair<std::size_t, std::size_t>(8, 3),
                      std::make_pair<std::size_t, std::size_t>(20, 20),
                      std::make_pair<std::size_t, std::size_t>(40, 12)));

TEST(JacobiSvd, Equation24FnormIdentity) {
  // The paper's Eq. (24): ||A||_F = sqrt(sum sigma_i^2).
  Rng rng(1101);
  const DenseMatrix a = random_matrix(15, 10, rng);
  const SvdResult svd = jacobi_svd(a);
  double sum_sq = 0.0;
  for (double s : svd.singular_values) sum_sq += s * s;
  EXPECT_NEAR(a.frobenius_norm(), std::sqrt(sum_sq), 1e-10);
}

TEST(JacobiSvd, RankDeficientMatrixDetected) {
  // Rank-2 matrix: two nonzero singular values, the rest ~0.
  Rng rng(1102);
  const DenseMatrix b = random_matrix(10, 2, rng);
  DenseMatrix a(10, 5, 0.0);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      a(i, j) = b(i, 0) * (j + 1.0) + b(i, 1) * (j * j - 2.0);
    }
  }
  const SvdResult svd = jacobi_svd(a);
  EXPECT_EQ(numerical_rank(svd, 1e-9), 2u);
  expect_valid_svd(a, svd, 1e-9);
}

TEST(JacobiSvd, RejectsBadShapes) {
  EXPECT_THROW(jacobi_svd(DenseMatrix(2, 3)), dasc::InvalidArgument);
  EXPECT_THROW(jacobi_svd(DenseMatrix(3, 3), 0), dasc::InvalidArgument);
}

}  // namespace
}  // namespace dasc::linalg
