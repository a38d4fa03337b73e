// Low-rank (Nystrom) kernel approximation — the other family of kernel
// approximations the paper's related work surveys (Section 2: Williams &
// Seeger; "our proposed algorithm benefits from the advantages of both
// categories").
//
// nystrom_landmark_factor is the repo's one Nystrom factorization. Every
// consumer builds on it: the per-bucket Nystrom backend (BucketEmbedder,
// and through it the NYST baseline) and the whole-dataset LowRankGram
// that bench_ablation_approx compares against the LSH blocks under equal
// memory budgets.
//
// K ~= C W^+ C^T is stored in factored form F = C P with
// P = U_kept Lambda_kept^{-1/2} from W = U Lambda U^T (valid for the PSD
// Gaussian kernel), so the footprint is N*m entries instead of N^2.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "data/point_set.hpp"
#include "linalg/dense_matrix.hpp"

namespace dasc::core {

/// Relative spectral floor of every factored eigenproblem (the landmark
/// block W here, the r x r core of the factored spectral solve): components
/// with lambda <= floor * lambda_max carry no mass and are dropped.
inline constexpr double kFactorEigenFloor = 1e-12;

/// The Nystrom factorization of the Gaussian Gram over a point subset:
/// K ~= (C P)(C P)^T.
struct NystromLandmarkFactor {
  linalg::DenseMatrix c;  ///< n x m kernel slab: subset rows x landmarks
  linalg::DenseMatrix p;  ///< m x rank, P = U_kept Lambda_kept^{-1/2}
  /// Subset-local row of each landmark (m entries, in column order of C).
  std::vector<std::size_t> landmarks;
};

/// Factor the Gaussian Gram of `points` restricted to `indices` with
/// `landmarks` uniformly drawn subset rows (partial Fisher-Yates; the
/// draw is the first use of `rng`, so the draw order is part of every
/// consumer's determinism contract). `sigma` must be resolved (> 0).
/// Eigenvalues of W below kFactorEigenFloor * largest are dropped, so
/// p.cols() is the retained rank.
NystromLandmarkFactor nystrom_landmark_factor(
    const data::PointSet& points, std::span<const std::size_t> indices,
    std::size_t landmarks, double sigma, Rng& rng);

/// Factored low-rank Gram approximation K ~= F F^T.
class LowRankGram {
 public:
  LowRankGram(linalg::DenseMatrix factor, std::size_t landmarks);

  std::size_t num_points() const { return factor_.rows(); }
  /// Retained rank (columns of F; <= requested landmarks).
  std::size_t rank() const { return factor_.cols(); }
  std::size_t landmarks() const { return landmarks_; }

  const linalg::DenseMatrix& factor() const { return factor_; }

  /// ||F F^T||_F, computed from the rank x rank matrix F^T F.
  double frobenius_norm() const;

  /// Stored entries (N * rank) and the Eq. 12-style byte count at the
  /// factor's actual element size. Routed through
  /// BucketEmbedder::factor_bytes — the one accounting rule shared with
  /// BlockGram and pipeline admission.
  std::size_t stored_entries() const { return factor_.size(); }
  std::size_t gram_bytes() const;

  /// Materialize K~ (tests / Fnorm comparisons only).
  linalg::DenseMatrix to_dense() const;

 private:
  linalg::DenseMatrix factor_;
  std::size_t landmarks_ = 0;
};

/// Nystrom approximation of the whole dataset's Gaussian Gram from
/// `landmarks` uniformly sampled points: nystrom_landmark_factor over all
/// points, F = C P. sigma 0 = median heuristic.
LowRankGram nystrom_approximate_kernel(const data::PointSet& points,
                                       std::size_t landmarks, double sigma,
                                       Rng& rng);

}  // namespace dasc::core
