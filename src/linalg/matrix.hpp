// Dense row-major matrix with the BLAS-2/3 kernels the solvers need.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/vector.hpp"

namespace xpuf::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Pointer to the start of row r (contiguous, cols() doubles).
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  const std::vector<double>& raw() const { return data_; }

  /// Appends one row in amortized O(cols) time: the flat storage grows
  /// geometrically (std::vector push semantics), so building an n-row matrix
  /// row by row is O(n * cols) total — never the O(n^2) of copy-and-grow.
  /// The row length must match cols(); an empty 0 x 0 matrix adopts the
  /// first row's length.
  void append_row(std::span<const double> row);

  /// Pre-reserves flat storage for `rows` rows (cols() must be known).
  void reserve_rows(std::size_t rows) { data_.reserve(rows * cols_); }

  /// Reshapes in place to rows x cols. Contents become unspecified; existing
  /// heap capacity is reused when it suffices (the storage-reusing chunk
  /// producers lean on this to stop per-chunk allocation churn).
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

  bool operator==(const Matrix& rhs) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = A x.
Vector matvec(const Matrix& a, const Vector& x);

/// y = A^T x.
Vector matvec_transposed(const Matrix& a, const Vector& x);

/// C = A B, cache-blocked over the inner dimension and parallelized over
/// row blocks on the global thread pool. Each output element accumulates in
/// ascending-k order regardless of blocking or thread count, so the result
/// is bit-identical for 1..N threads.
Matrix matmul_blocked(const Matrix& a, const Matrix& b);

/// C = A B^T with B supplied already transposed: `bt` is (p x k) row-major,
/// so c(i, j) = dot(a.row(i), bt.row(j)) runs over two contiguous rows —
/// the cache-friendly layout for MLP forward passes (activations x weight
/// rows). Parallel over rows of A; bit-identical for any thread count.
Matrix matmul_nt(const Matrix& a, const Matrix& bt);

/// C = A^T B (k x n times k x p -> n x p), the gradient-accumulation kernel
/// (C = sum over rows r of outer(a.row(r), b.row(r))). Rows are sharded
/// into fixed-size chunks whose partial sums are combined in ascending
/// chunk order, so the result depends on the chunk grid but never on the
/// thread count. `row_chunk` overrides the shard size (0 keeps the default
/// grid); callers that must reproduce a historical partial-sum grid — the
/// logistic-regression objective's kGradChunk — pass their own.
Matrix matmul_tn(const Matrix& a, const Matrix& b, std::size_t row_chunk = 0);

/// Gram matrix A^T A (symmetric, computed in the upper triangle and
/// mirrored) — the normal-equations kernel for least squares.
Matrix gram(const Matrix& a);

/// Frobenius norm.
double norm_frobenius(const Matrix& a);

}  // namespace xpuf::linalg
