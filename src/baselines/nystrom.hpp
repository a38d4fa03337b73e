// Nystrom-extension spectral clustering baseline (the paper's "NYST"
// comparator; Schuetter & Shi 2011 / Fowlkes et al. lineage).
//
// The whole dataset is fitted as one bucket by the Nystrom BucketEmbedder:
// m landmarks are sampled and the Gram is factored as F = C W^{-1/2} by
// core::nystrom_landmark_factor (the repo's one Nystrom factor routine);
// degrees d = F (F^T 1) and the top-K eigenvectors of the normalized
// affinity come from the factored spectral solve on an m x m core.
// Cost: O(N m^2 + m^3) time and O(N m) memory.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "data/point_set.hpp"

namespace dasc::baselines {

struct NystromParams {
  std::size_t k = 2;       ///< clusters
  std::size_t landmarks = 0;  ///< sample size m; 0 = core::auto_backend_rank
  double sigma = 0.0;      ///< Gaussian bandwidth; 0 = auto
};

struct NystromResult {
  std::vector<int> labels;
  std::size_t k = 0;
  std::size_t landmarks = 0;  ///< resolved m
  /// Eq. 12 bytes of the C and W kernel slabs.
  std::size_t kernel_bytes = 0;
};

/// Run Nystrom spectral clustering on a dataset.
NystromResult nystrom_cluster(const data::PointSet& points,
                              const NystromParams& params, Rng& rng);

}  // namespace dasc::baselines
