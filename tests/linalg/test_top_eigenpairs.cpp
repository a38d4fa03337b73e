#include "linalg/top_eigenpairs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/symmetric_eigen.hpp"

namespace dasc::linalg {
namespace {

constexpr std::size_t kCutoff = 128;

/// The r x r core of the factored spectral solve, B = Z^T D^{-1} Z with
/// degrees d = Z (Z^T 1), for a pinned random-binning-style feature matrix
/// Z (n = 4r rows, `per_row` entries of weight 1/sqrt(per_row) each). Row
/// i draws its columns from group i % groups, whose columns are disjoint
/// from the other groups', so each group is one connected component and
/// the top eigenvalue 1 repeats `groups` times. `cross` is the chance
/// that an entry lands in any column instead, linking the groups.
DenseMatrix factored_core(std::size_t r, std::size_t groups,
                          std::size_t per_row, double cross,
                          std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 4 * r;
  const std::size_t width = r / groups;
  const double weight = 1.0 / std::sqrt(static_cast<double>(per_row));
  DenseMatrix z(n, r, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t group = i % groups;
    const std::size_t lo = group * width;
    const std::size_t hi = group + 1 == groups ? r : lo + width;
    for (std::size_t t = 0; t < per_row; ++t) {
      const std::size_t col = rng.uniform() < cross
                                  ? rng.uniform_index(r)
                                  : lo + rng.uniform_index(hi - lo);
      z(i, col) += weight;
    }
  }
  std::vector<double> colsum(r, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < r; ++a) colsum[a] += z(i, a);
  }
  DenseMatrix b(r, r, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (std::size_t a = 0; a < r; ++a) degree += z(i, a) * colsum[a];
    for (std::size_t a = 0; a < r; ++a) {
      for (std::size_t c = a; c < r; ++c) {
        b(a, c) += z(i, a) * z(i, c) / degree;
      }
    }
  }
  for (std::size_t a = 0; a < r; ++a) {
    for (std::size_t c = 0; c < a; ++c) b(a, c) = b(c, a);
  }
  return b;
}

/// `top` agrees with the full decomposition of `a`: eigenvalues to 1e-10
/// relative, and each vector lies in its eigenvalue's eigenspace with
/// |cos| > 1 - 1e-8. For a simple eigenvalue that is the cosine against
/// the reference vector; for a repeated one (which fixes only the space,
/// not the basis) it is the norm of the projection onto the space.
void expect_matches_full(const DenseMatrix& a, const TopEigenpairs& top,
                         std::size_t k) {
  const std::size_t n = a.rows();
  const SymmetricEigenResult full = symmetric_eigen(a);
  ASSERT_EQ(top.eigenvalues.size(), k);
  ASSERT_EQ(top.eigenvectors.rows(), n);
  ASSERT_EQ(top.eigenvectors.cols(), k);
  for (std::size_t j = 0; j < k; ++j) {
    const double want = full.eigenvalues[n - 1 - j];
    const double got = top.eigenvalues[j];
    EXPECT_LE(std::abs(got - want), 1e-10 * std::abs(want)) << "pair " << j;

    double projection = 0.0;
    for (std::size_t e = 0; e < n; ++e) {
      const double lambda = full.eigenvalues[e];
      if (std::abs(lambda - want) > 1e-10 * std::abs(want)) continue;
      double cos = 0.0;
      for (std::size_t row = 0; row < n; ++row) {
        cos += top.eigenvectors(row, j) * full.eigenvectors(row, e);
      }
      projection += cos * cos;
    }
    EXPECT_GT(std::sqrt(projection), 1.0 - 1e-8) << "pair " << j;
  }
  // Distinct columns, so a repeated eigenvalue's copies span its space.
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j < k; ++j) {
      double inner = 0.0;
      for (std::size_t row = 0; row < n; ++row) {
        inner += top.eigenvectors(row, i) * top.eigenvectors(row, j);
      }
      EXPECT_NEAR(inner, i == j ? 1.0 : 0.0, 1e-8) << i << "," << j;
    }
  }
}

std::size_t copies_of_top(const DenseMatrix& a) {
  const SymmetricEigenResult full = symmetric_eigen(a);
  const double top = full.eigenvalues.back();
  std::size_t copies = 0;
  for (const double lambda : full.eigenvalues) {
    if (std::abs(lambda - top) <= 1e-10 * std::abs(top)) ++copies;
  }
  return copies;
}

TEST(TopEigenpairs, MatchesFullSolveBelowCutoff) {
  const DenseMatrix core = factored_core(96, 4, 8, 0.05, 21);
  ASSERT_LE(core.rows(), kCutoff);
  expect_matches_full(core, top_eigenpairs(core, 6, kCutoff), 6);
}

TEST(TopEigenpairs, MatchesFullSolveAboveCutoff) {
  const DenseMatrix core = factored_core(200, 4, 8, 0.05, 22);
  ASSERT_GT(core.rows(), kCutoff);
  expect_matches_full(core, top_eigenpairs(core, 6, kCutoff, true), 6);
}

TEST(TopEigenpairs, RepeatedTopEigenvalueBelowCutoff) {
  const DenseMatrix core = factored_core(96, 2, 4, 0.0, 23);
  ASSERT_EQ(copies_of_top(core), 2u);
  expect_matches_full(core, top_eigenpairs(core, 4, kCutoff), 4);
}

TEST(TopEigenpairs, RepeatedTopEigenvalueAboveCutoff) {
  // Four disconnected blocks: eigenvalue 1 four times, and k = 4 asks for
  // exactly that eigenspace. A single Lanczos sequence misses one copy on
  // this core (its fourth value is the next eigenvalue down), so passing
  // takes the complement probe.
  const DenseMatrix core = factored_core(200, 4, 4, 0.0, 1);
  ASSERT_GT(core.rows(), kCutoff);
  ASSERT_EQ(copies_of_top(core), 4u);
  const TopEigenpairs plain = top_eigenpairs(core, 4, kCutoff);
  EXPECT_LT(plain.eigenvalues[3], 0.9);
  expect_matches_full(core, top_eigenpairs(core, 4, kCutoff, true), 4);

  const DenseMatrix two = factored_core(200, 2, 4, 0.0, 24);
  ASSERT_EQ(copies_of_top(two), 2u);
  expect_matches_full(two, top_eigenpairs(two, 5, kCutoff, true), 5);
}

TEST(TopEigenpairs, ProbeFindingNothingLeavesResultBitIdentical) {
  const DenseMatrix core = factored_core(200, 4, 8, 0.05, 22);
  const TopEigenpairs plain = top_eigenpairs(core, 6, kCutoff);
  const TopEigenpairs probed = top_eigenpairs(core, 6, kCutoff, true);
  EXPECT_EQ(plain.eigenvalues, probed.eigenvalues);
  EXPECT_EQ(plain.eigenvectors.max_abs_diff(probed.eigenvectors), 0.0);
}

TEST(TopEigenpairs, DenseSideCopiesSymmetricEigenColumns) {
  // The dense spectral path's historical column copies, bit for bit.
  const DenseMatrix core = factored_core(96, 4, 8, 0.05, 25);
  const SymmetricEigenResult full = symmetric_eigen(core);
  const TopEigenpairs top = top_eigenpairs(core, 5, kCutoff);
  for (std::size_t col = 0; col < 5; ++col) {
    const std::size_t src = core.rows() - 1 - col;
    EXPECT_EQ(top.eigenvalues[col], full.eigenvalues[src]);
    for (std::size_t row = 0; row < core.rows(); ++row) {
      EXPECT_EQ(top.eigenvectors(row, col), full.eigenvectors(row, src));
    }
  }
}

TEST(TopEigenpairs, RejectsBadArguments) {
  const DenseMatrix square(4, 4, 0.0);
  EXPECT_THROW(top_eigenpairs(square, 0, kCutoff), dasc::InvalidArgument);
  EXPECT_THROW(top_eigenpairs(square, 5, kCutoff), dasc::InvalidArgument);
  EXPECT_THROW(top_eigenpairs(DenseMatrix(3, 4), 1, kCutoff),
               dasc::InvalidArgument);
}

}  // namespace
}  // namespace dasc::linalg
