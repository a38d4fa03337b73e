#include "linalg/top_eigenpairs.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "linalg/vector_ops.hpp"

namespace dasc::linalg {
namespace {

/// x <- x - V (V^T x) for the orthonormal columns of `v`.
void project_out(const DenseMatrix& v, std::span<double> x,
                 std::vector<double>& coeffs) {
  const std::size_t n = v.rows();
  const std::size_t k = v.cols();
  coeffs.assign(k, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    const double* vr = v.row(row).data();
    for (std::size_t col = 0; col < k; ++col) coeffs[col] += vr[col] * x[row];
  }
  for (std::size_t row = 0; row < n; ++row) {
    const double* vr = v.row(row).data();
    double acc = 0.0;
    for (std::size_t col = 0; col < k; ++col) acc += vr[col] * coeffs[col];
    x[row] -= acc;
  }
}

/// One Lanczos sequence sees a single direction of each eigenspace, so a
/// copy of an eigenvalue repeated within the top k enters its Krylov space
/// only through rounding noise and can be missed while every returned pair
/// still has a small residual (disconnected components of an affinity give
/// exactly such spectra). Probe the orthogonal complement of the found
/// vectors: while it holds a direction with Rayleigh quotient above the
/// k-th found eigenvalue, add it and re-solve Rayleigh-Ritz on the
/// enlarged basis. A probe that finds nothing leaves `out` untouched.
void recover_missed_multiplicity(const DenseMatrix& a, TopEigenpairs& out) {
  const std::size_t n = a.rows();
  const std::size_t k = out.eigenvalues.size();
  if (k >= n) return;
  std::vector<double> coeffs;
  std::vector<double> projected(n);
  std::vector<double> image(n);
  for (std::size_t round = 0; round < k; ++round) {
    const DenseMatrix& v = out.eigenvectors;
    LinearOperator complement;
    complement.dim = n;
    complement.apply = [&](std::span<const double> x, std::span<double> y) {
      std::copy(x.begin(), x.end(), projected.begin());
      project_out(v, projected, coeffs);
      a.matvec(projected, y);
      project_out(v, y, coeffs);
    };
    LanczosOptions options;
    options.seed = 0x9e3779b97f4a7c15ULL + round;
    const LanczosResult probe = lanczos_largest(complement, 1, options);

    std::vector<double> w(n);
    for (std::size_t row = 0; row < n; ++row) {
      w[row] = probe.eigenvectors(row, 0);
    }
    project_out(v, w, coeffs);
    if (normalize(w) < 0.5) return;  // the probe landed in span(V)
    project_out(v, w, coeffs);  // twice, for orthogonality to round-off
    normalize(w);
    a.matvec(w, image);
    const double rayleigh = dot(std::span<const double>(w), image);
    double scale = 0.0;
    for (const double lambda : out.eigenvalues) {
      scale = std::max(scale, std::abs(lambda));
    }
    if (rayleigh <= out.eigenvalues[k - 1] + 1e-10 * std::max(scale, 1.0)) {
      return;
    }

    // Rayleigh-Ritz on basis Q = [V, w]: H = Q^T A Q, keep its top k.
    DenseMatrix q(n, k + 1, 0.0);
    for (std::size_t row = 0; row < n; ++row) {
      for (std::size_t col = 0; col < k; ++col) q(row, col) = v(row, col);
      q(row, k) = w[row];
    }
    DenseMatrix h = q.transposed().multiply(a.multiply(q));
    for (std::size_t i = 0; i <= k; ++i) {
      for (std::size_t j = 0; j < i; ++j) h(i, j) = h(j, i);
    }
    const SymmetricEigenResult small = symmetric_eigen(h);
    DenseMatrix lift(k + 1, k, 0.0);  // top-k eigenvectors of H
    for (std::size_t col = 0; col < k; ++col) {
      const std::size_t src = k - col;  // ascending; drop the smallest
      out.eigenvalues[col] = small.eigenvalues[src];
      for (std::size_t j = 0; j <= k; ++j) {
        lift(j, col) = small.eigenvectors(j, src);
      }
    }
    out.eigenvectors = q.multiply(lift);
  }
}

}  // namespace

TopEigenpairs top_eigenpairs(const DenseMatrix& a, std::size_t k,
                             std::size_t dense_cutoff,
                             bool probe_multiplicity) {
  DASC_EXPECT(a.rows() == a.cols(), "top_eigenpairs: matrix must be square");
  const std::size_t n = a.rows();
  DASC_EXPECT(k >= 1 && k <= n, "top_eigenpairs: k must be in [1, n]");

  TopEigenpairs out;
  if (n <= dense_cutoff) {
    const SymmetricEigenResult eigen = symmetric_eigen(a);
    out.eigenvalues.assign(k, 0.0);
    out.eigenvectors = DenseMatrix(n, k, 0.0);
    for (std::size_t col = 0; col < k; ++col) {
      const std::size_t src = n - 1 - col;  // eigenvalues ascend
      out.eigenvalues[col] = eigen.eigenvalues[src];
      for (std::size_t row = 0; row < n; ++row) {
        out.eigenvectors(row, col) = eigen.eigenvectors(row, src);
      }
    }
    return out;
  }

  LanczosResult eigen = lanczos_largest(as_operator(a), k);
  DASC_ENSURE(eigen.eigenvectors.cols() == k,
              "top_eigenpairs: Lanczos returned too few vectors");
  out.eigenvalues = std::move(eigen.eigenvalues);
  out.eigenvectors = std::move(eigen.eigenvectors);
  if (probe_multiplicity) recover_missed_multiplicity(a, out);
  return out;
}

}  // namespace dasc::linalg
