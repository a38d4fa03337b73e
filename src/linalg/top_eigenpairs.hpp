// The one rule for "top-k eigenpairs of a symmetric matrix".
//
// Every spectral consumer needs only the k largest eigenpairs: the dense
// per-bucket Laplacian (Section 3.2 of the paper) and the r x r core of
// the factored (Nystrom / random-binning) solve. Small matrices go through
// the full Householder + QL decomposition; larger ones through Lanczos,
// whose cost scales with k matvecs instead of n^3.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.hpp"

namespace dasc::linalg {

/// The k largest eigenpairs of a symmetric matrix.
struct TopEigenpairs {
  /// k eigenvalues, descending.
  std::vector<double> eigenvalues;
  /// n x k; column j is the unit eigenvector for eigenvalues[j].
  DenseMatrix eigenvectors;
};

/// Top-k eigenpairs of symmetric `a` (1 <= k <= n): symmetric_eigen when
/// n <= dense_cutoff, lanczos_largest otherwise.
///
/// A single Lanczos sequence can silently miss a copy of an eigenvalue
/// that is repeated within the top k (exactly disconnected components of
/// an affinity produce such spectra). With `probe_multiplicity` the
/// Lanczos side probes the complement of the pairs it found and recovers
/// any missed copy, at the cost of about one more Lanczos pass; when
/// nothing is missed the result is bit-identical to the plain call. The
/// dense side is a full decomposition and needs no probe.
TopEigenpairs top_eigenpairs(const DenseMatrix& a, std::size_t k,
                             std::size_t dense_cutoff,
                             bool probe_multiplicity = false);

}  // namespace dasc::linalg
