#include "data/point_set.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace dasc::data {

PointSet::PointSet(std::size_t n, std::size_t dim)
    : n_(n), dim_(dim), values_(n * dim, 0.0) {
  DASC_EXPECT(dim > 0 || n == 0, "PointSet: dimension must be positive");
}

PointSet::PointSet(std::size_t n, std::size_t dim, AlignedVector values)
    : n_(n), dim_(dim), values_(std::move(values)) {
  DASC_EXPECT(values_.size() == n * dim,
              "PointSet: values size must equal n * dim");
}

PointSet::PointSet(std::size_t n, std::size_t dim,
                   const std::vector<double>& values)
    : PointSet(n, dim, AlignedVector(values.begin(), values.end())) {}

PointSet::PointSet(std::size_t n, std::size_t dim,
                   std::initializer_list<double> values)
    : PointSet(n, dim, AlignedVector(values)) {}

void PointSet::set_labels(std::vector<int> labels) {
  DASC_EXPECT(labels.size() == n_, "set_labels: size must equal point count");
  labels_ = std::move(labels);
}

int PointSet::label(std::size_t i) const {
  DASC_EXPECT(has_labels(), "label: point set has no labels");
  DASC_EXPECT(i < n_, "label: index out of range");
  return labels_[i];
}

PointSet PointSet::subset(const std::vector<std::size_t>& indices) const {
  PointSet out(indices.size(), dim_);
  for (std::size_t row = 0; row < indices.size(); ++row) {
    DASC_EXPECT(indices[row] < n_, "subset: index out of range");
    const auto src = point(indices[row]);
    std::copy(src.begin(), src.end(), out.point(row).begin());
  }
  if (has_labels()) {
    std::vector<int> labels(indices.size());
    for (std::size_t row = 0; row < indices.size(); ++row) {
      labels[row] = labels_[indices[row]];
    }
    out.set_labels(std::move(labels));
  }
  return out;
}

void PointSet::normalize_min_max() {
  const std::vector<double> lo = minima();
  const std::vector<double> span = spans();
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t d = 0; d < dim_; ++d) {
      double& v = values_[i * dim_ + d];
      v = span[d] > 0.0 ? (v - lo[d]) / span[d] : 0.0;
    }
  }
}

std::vector<double> PointSet::spans() const {
  std::vector<double> lo(dim_, std::numeric_limits<double>::infinity());
  std::vector<double> hi(dim_, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t d = 0; d < dim_; ++d) {
      const double v = values_[i * dim_ + d];
      lo[d] = std::min(lo[d], v);
      hi[d] = std::max(hi[d], v);
    }
  }
  std::vector<double> span(dim_, 0.0);
  if (n_ > 0) {
    for (std::size_t d = 0; d < dim_; ++d) span[d] = hi[d] - lo[d];
  }
  return span;
}

std::vector<double> PointSet::minima() const {
  std::vector<double> lo(dim_, 0.0);
  if (n_ == 0) return lo;
  lo.assign(dim_, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t d = 0; d < dim_; ++d) {
      lo[d] = std::min(lo[d], values_[i * dim_ + d]);
    }
  }
  return lo;
}

}  // namespace dasc::data
