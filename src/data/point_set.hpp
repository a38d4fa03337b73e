// A dataset of N points in R^d with optional ground-truth labels.
//
// Row-major storage matching the paper's (index, inputVector) records; every
// algorithm in the library consumes points through this type.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/aligned_allocator.hpp"
#include "common/error.hpp"

namespace dasc::data {

/// N x d row-major point collection, optionally labelled.
class PointSet {
 public:
  PointSet() = default;

  /// n points of dimension d, zero-initialized.
  PointSet(std::size_t n, std::size_t dim);

  /// Adopt row-major values without copying them (size must be n * dim).
  PointSet(std::size_t n, std::size_t dim, AlignedVector values);
  /// Copy row-major values (size must be n * dim).
  PointSet(std::size_t n, std::size_t dim, const std::vector<double>& values);
  PointSet(std::size_t n, std::size_t dim,
           std::initializer_list<double> values);

  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }
  bool empty() const { return n_ == 0; }

  // Bounds-checked accessors, inline for the per-point kernel loops.
  std::span<double> point(std::size_t i) {
    DASC_EXPECT(i < n_, "PointSet: index out of range");
    return {values_.data() + i * dim_, dim_};
  }
  std::span<const double> point(std::size_t i) const {
    DASC_EXPECT(i < n_, "PointSet: index out of range");
    return {values_.data() + i * dim_, dim_};
  }

  double& at(std::size_t i, std::size_t d) {
    DASC_EXPECT(i < n_ && d < dim_, "PointSet: index out of range");
    return values_[i * dim_ + d];
  }
  double at(std::size_t i, std::size_t d) const {
    DASC_EXPECT(i < n_ && d < dim_, "PointSet: index out of range");
    return values_[i * dim_ + d];
  }

  const AlignedVector& values() const { return values_; }

  bool has_labels() const { return !labels_.empty(); }
  const std::vector<int>& labels() const { return labels_; }
  void set_labels(std::vector<int> labels);
  int label(std::size_t i) const;

  /// New PointSet holding the given rows (labels carried along if present).
  PointSet subset(const std::vector<std::size_t>& indices) const;

  /// Rescale every dimension to [0, 1] in place (the paper's standard
  /// preprocessing). Constant dimensions map to 0.
  void normalize_min_max();

  /// Per-dimension numerical span max - min (Eq. 4's ranking statistic).
  std::vector<double> spans() const;

  /// Per-dimension minima.
  std::vector<double> minima() const;

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  // Cache-line aligned for the same reason as DenseMatrix::data_: the
  // Gram build sweeps point rows with 4-wide loads.
  AlignedVector values_;
  std::vector<int> labels_;
};

}  // namespace dasc::data
