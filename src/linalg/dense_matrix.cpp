#include "linalg/dense_matrix.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/simd_ops.hpp"

namespace dasc::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows),
      cols_(cols),
      data_(rows * cols, fill),
      tracked_(rows * cols * sizeof(double)) {
  DASC_EXPECT(rows == 0 || cols == 0 || rows * cols / rows == cols,
              "DenseMatrix: size overflow");
}

DenseMatrix::DenseMatrix(const DenseMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      data_(other.data_),
      tracked_(other.data_.size() * sizeof(double)) {}

DenseMatrix& DenseMatrix::operator=(const DenseMatrix& other) {
  if (this != &other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = other.data_;
    tracked_.resize(data_.size() * sizeof(double));
  }
  return *this;
}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  DASC_EXPECT(cols_ == other.rows_, "multiply: inner dimension mismatch");
  DenseMatrix out(rows_, other.cols_, 0.0);
  // i-k-j loop order keeps both B's row and C's row streaming.
  for (std::size_t i = 0; i < rows_; ++i) {
    double* ci = out.data_.data() + i * other.cols_;
    const double* ai = data_.data() + i * cols_;
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = other.data_.data() + k * other.cols_;
      for (std::size_t j = 0; j < other.cols_; ++j) ci[j] += aik * bk[j];
    }
  }
  return out;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix out(cols_, rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

void DenseMatrix::matvec(std::span<const double> x,
                         std::span<double> y) const {
  DASC_EXPECT(x.size() == cols_, "matvec: x length mismatch");
  DASC_EXPECT(y.size() == rows_, "matvec: y length mismatch");
  const SimdKernels& kernels = simd::active();
  for (std::size_t i = 0; i < rows_; ++i) {
    y[i] = kernels.dot(data_.data() + i * cols_, x.data(), cols_);
  }
}

double DenseMatrix::frobenius_norm() const {
  return std::sqrt(simd::active().dot(data_.data(), data_.data(),
                                      data_.size()));
}

double DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  DASC_EXPECT(rows_ == other.rows_ && cols_ == other.cols_,
              "max_abs_diff: shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

bool DenseMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      if (std::abs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    }
  }
  return true;
}

}  // namespace dasc::linalg
