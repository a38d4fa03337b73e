#include "core/lowrank_approximator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "clustering/kernel.hpp"
#include "common/error.hpp"
#include "core/bucket_embedder.hpp"
#include "linalg/symmetric_eigen.hpp"

namespace dasc::core {

LowRankGram::LowRankGram(linalg::DenseMatrix factor, std::size_t landmarks)
    : factor_(std::move(factor)), landmarks_(landmarks) {}

std::size_t LowRankGram::gram_bytes() const {
  return BucketEmbedder::factor_bytes(factor_.rows(), factor_.cols());
}

double LowRankGram::frobenius_norm() const {
  // ||F F^T||_F = ||F^T F||_F; the Gram of the factor is rank x rank.
  const std::size_t r = factor_.cols();
  const std::size_t n = factor_.rows();
  double acc = 0.0;
  for (std::size_t a = 0; a < r; ++a) {
    for (std::size_t b = 0; b < r; ++b) {
      double entry = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        entry += factor_(i, a) * factor_(i, b);
      }
      acc += entry * entry;
    }
  }
  return std::sqrt(acc);
}

linalg::DenseMatrix LowRankGram::to_dense() const {
  const std::size_t n = factor_.rows();
  const std::size_t r = factor_.cols();
  linalg::DenseMatrix dense(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < r; ++c) {
        acc += factor_(i, c) * factor_(j, c);
      }
      dense(i, j) = acc;
    }
  }
  return dense;
}

NystromLandmarkFactor nystrom_landmark_factor(
    const data::PointSet& points, std::span<const std::size_t> indices,
    std::size_t landmarks, double sigma, Rng& rng) {
  const std::size_t n = indices.size();
  const std::size_t m = landmarks;
  DASC_EXPECT(m >= 1 && m <= n,
              "nystrom_landmark_factor: landmarks must be in [1, n]");
  DASC_EXPECT(sigma > 0.0, "nystrom_landmark_factor: sigma must be > 0");

  // Heap order as on the embedder's original path: C first, and the
  // n-entry draw scratch freed on return. Allocating the scratch first
  // and keeping it as the landmark list made the giant-bucket benchmark
  // ~20% slower.
  NystromLandmarkFactor out;
  out.c = linalg::DenseMatrix(n, m, 0.0);

  // Uniform landmark sample without replacement over subset-local rows.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = 0; i < m; ++i) {
    std::swap(order[i], order[i + rng.uniform_index(n - i)]);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const auto x = points.point(indices[i]);
    for (std::size_t j = 0; j < m; ++j) {
      out.c(i, j) = clustering::gaussian_kernel(
          x, points.point(indices[order[j]]), sigma);
    }
  }
  linalg::DenseMatrix w(m, m, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) w(a, b) = out.c(order[a], b);
  }

  // P needs every retained eigenpair of W, so this is a full QL solve.
  const linalg::SymmetricEigenResult eigen = linalg::symmetric_eigen(w);
  const double floor =
      kFactorEigenFloor * std::max(eigen.eigenvalues.back(), 1e-300);
  std::vector<std::size_t> kept;
  for (std::size_t e = 0; e < m; ++e) {
    if (eigen.eigenvalues[e] > floor) kept.push_back(e);
  }
  DASC_ENSURE(!kept.empty(),
              "nystrom_landmark_factor: landmark block numerically zero");

  out.p = linalg::DenseMatrix(m, kept.size(), 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t col = 0; col < kept.size(); ++col) {
      const std::size_t e = kept[col];
      out.p(a, col) =
          eigen.eigenvectors(a, e) / std::sqrt(eigen.eigenvalues[e]);
    }
  }
  out.landmarks.assign(order.begin(), order.begin() + m);
  return out;
}

LowRankGram nystrom_approximate_kernel(const data::PointSet& points,
                                       std::size_t landmarks, double sigma,
                                       Rng& rng) {
  const std::size_t n = points.size();
  DASC_EXPECT(n >= 1, "nystrom_approximate_kernel: empty dataset");
  DASC_EXPECT(landmarks >= 1 && landmarks <= n,
              "nystrom_approximate_kernel: landmarks must be in [1, N]");
  const double bandwidth =
      sigma > 0.0 ? sigma : clustering::suggest_bandwidth(points);
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  const NystromLandmarkFactor f =
      nystrom_landmark_factor(points, all, landmarks, bandwidth, rng);
  return LowRankGram(f.c.multiply(f.p), landmarks);
}

}  // namespace dasc::core
