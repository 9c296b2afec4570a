#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace xpuf::linalg {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::append_row(std::span<const double> row) {
  if (rows_ == 0 && cols_ == 0) cols_ = row.size();
  XPUF_REQUIRE(row.size() == cols_, "append_row length mismatch");
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  XPUF_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix += shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  XPUF_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix -= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Vector matvec(const Matrix& a, const Vector& x) {
  XPUF_REQUIRE(a.cols() == x.size(), "matvec shape mismatch");
  Vector y(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row(r);
    double s = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) s += row[c] * x[c];
    y[r] = s;
  }
  return y;
}

Vector matvec_transposed(const Matrix& a, const Vector& x) {
  XPUF_REQUIRE(a.rows() == x.size(), "matvec_transposed shape mismatch");
  Vector y(a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row(r);
    const double xr = x[r];
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += row[c] * xr;
  }
  return y;
}

namespace {
// Row chunks for the parallel GEMM kernels. Fixed constants (independent of
// the thread count) so partial-sum grids — and therefore floating-point
// results — never change with the pool size.
constexpr std::size_t kGemmRowChunk = 32;
constexpr std::size_t kAccumRowChunk = 256;
// Inner-dimension block: 64 doubles of A-row reused against all of B keeps
// the working set of B rows in L1/L2.
constexpr std::size_t kInnerBlock = 64;
}  // namespace

Matrix matmul_blocked(const Matrix& a, const Matrix& b) {
  XPUF_REQUIRE(a.cols() == b.rows(), "matmul_blocked shape mismatch");
  Matrix c(a.rows(), b.cols());
  const std::size_t inner = a.cols();
  const std::size_t cols = b.cols();
  parallel_for(a.rows(), kGemmRowChunk,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::size_t kb = 0; kb < inner; kb += kInnerBlock) {
                   const std::size_t kend = std::min(inner, kb + kInnerBlock);
                   for (std::size_t i = begin; i < end; ++i) {
                     const double* arow = a.row(i);
                     double* crow = c.row(i);
                     for (std::size_t k = kb; k < kend; ++k) {
                       const double aik = arow[k];
                       const double* brow = b.row(k);
                       for (std::size_t j = 0; j < cols; ++j) crow[j] += aik * brow[j];
                     }
                   }
                 }
               });
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& bt) {
  XPUF_REQUIRE(a.cols() == bt.cols(), "matmul_nt shape mismatch");
  Matrix c(a.rows(), bt.rows());
  const std::size_t inner = a.cols();
  const std::size_t out = bt.rows();
  parallel_for(a.rows(), kGemmRowChunk,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::size_t i = begin; i < end; ++i) {
                   const double* arow = a.row(i);
                   double* crow = c.row(i);
                   for (std::size_t j = 0; j < out; ++j) {
                     const double* brow = bt.row(j);
                     double s = 0.0;
                     for (std::size_t k = 0; k < inner; ++k) s += arow[k] * brow[k];
                     crow[j] = s;
                   }
                 }
               });
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b, std::size_t row_chunk) {
  XPUF_REQUIRE(a.rows() == b.rows(), "matmul_tn shape mismatch");
  const std::size_t n = a.cols();
  const std::size_t p = b.cols();
  const std::size_t chunk = row_chunk == 0 ? kAccumRowChunk : row_chunk;
  Matrix zero(n, p);
  return parallel_reduce(
      a.rows(), chunk, zero,
      [&](Matrix& acc, std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const double* arow = a.row(r);
          const double* brow = b.row(r);
          for (std::size_t i = 0; i < n; ++i) {
            const double ai = arow[i];
            if (ai == 0.0) continue;
            double* accrow = acc.row(i);
            for (std::size_t j = 0; j < p; ++j) accrow[j] += ai * brow[j];
          }
        }
      },
      [](Matrix& acc, Matrix&& part) { acc += part; });
}

Matrix gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row(r);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      for (std::size_t j = i; j < a.cols(); ++j) g(i, j) += ri * row[j];
    }
  }
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  return g;
}

double norm_frobenius(const Matrix& a) {
  double s = 0.0;
  for (double x : a.raw()) s += x * x;
  return std::sqrt(s);
}

}  // namespace xpuf::linalg
