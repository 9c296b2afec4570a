// Test-side dense linear-algebra helpers: the naive reference product the
// blocked/parallel GEMM kernels are checked against, plus the explicit
// transpose, nested-initializer construction and max-deviation measure the
// linear-algebra tests build their expectations from. No production path
// needs any of them, so they live here rather than in src/linalg/.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace xpuf::oracle {

/// Builds a matrix from nested rows; all rows must have equal length.
inline linalg::Matrix from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return linalg::Matrix{};
  const std::size_t cols = rows.front().size();
  linalg::Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    XPUF_REQUIRE(rows[r].size() == cols, "ragged rows in from_rows");
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

inline linalg::Matrix transposed(const linalg::Matrix& a) {
  linalg::Matrix t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
  return t;
}

/// C = A B, the naive serial triple loop (row-major-friendly i-k-j order).
inline linalg::Matrix matmul(const linalg::Matrix& a, const linalg::Matrix& b) {
  XPUF_REQUIRE(a.cols() == b.rows(), "matmul shape mismatch");
  linalg::Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double* crow = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

/// Max |a_ij - b_ij|; matrices must have equal shape.
inline double max_abs_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  XPUF_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(), "shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.raw().size(); ++i)
    m = std::max(m, std::fabs(a.raw()[i] - b.raw()[i]));
  return m;
}

}  // namespace xpuf::oracle
