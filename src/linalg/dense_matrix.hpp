// Row-major dense matrix with tracked allocation.
//
// Gram matrices dominate the memory story of the paper (Fig. 6b), so every
// DenseMatrix registers its footprint with MemoryTracker, letting the
// benchmark harnesses report exact peak matrix bytes per algorithm.
#pragma once

#include <cstddef>
#include <span>

#include "common/aligned_allocator.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"

namespace dasc::linalg {

/// Actual bytes of `entries` kernel/Gram values stored at DenseMatrix's
/// element precision. The single source of truth for every Gram-memory
/// statistic: blocks are double-precision, so reporting them at float
/// precision (the paper's Eq. 12 units) would understate real usage 2x.
constexpr std::size_t gram_entry_bytes(std::size_t entries) {
  return entries * sizeof(double);
}

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// rows x cols matrix initialized to `fill`.
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  // Copies register their own footprint with the tracker; moves transfer it.
  DenseMatrix(const DenseMatrix& other);
  DenseMatrix& operator=(const DenseMatrix& other);
  DenseMatrix(DenseMatrix&&) noexcept = default;
  DenseMatrix& operator=(DenseMatrix&&) noexcept = default;
  ~DenseMatrix() = default;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Bounds-checked accessors, inline so element loops (the eigensolvers,
  // the factored core build) do not pay a call per entry.
  double& operator()(std::size_t r, std::size_t c) {
    DASC_EXPECT(r < rows_ && c < cols_, "DenseMatrix: index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    DASC_EXPECT(r < rows_ && c < cols_, "DenseMatrix: index out of range");
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    DASC_EXPECT(r < rows_, "DenseMatrix: row out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    DASC_EXPECT(r < rows_, "DenseMatrix: row out of range");
    return {data_.data() + r * cols_, cols_};
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Tracked bytes held by this matrix.
  std::size_t bytes() const { return data_.size() * sizeof(double); }

  static DenseMatrix identity(std::size_t n);

  /// this * other (naive triple loop with cache-friendly ordering).
  DenseMatrix multiply(const DenseMatrix& other) const;

  /// this^T.
  DenseMatrix transposed() const;

  /// y = this * x for a length-cols() vector x; y has length rows().
  void matvec(std::span<const double> x, std::span<double> y) const;

  /// Frobenius norm sqrt(sum a_ij^2) -- Eq. (22) of the paper.
  double frobenius_norm() const;

  /// Max |a_ij - b_ij| between two equal-shape matrices.
  double max_abs_diff(const DenseMatrix& other) const;

  /// True if |a_ij - a_ji| <= tol for all i, j.
  bool is_symmetric(double tol = 1e-10) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Cache-line aligned so SIMD row sweeps avoid line-straddling loads
  // (rows land on 64-byte boundaries whenever cols is a multiple of 8).
  AlignedVector data_;
  ScopedAllocation tracked_;
};

}  // namespace dasc::linalg
