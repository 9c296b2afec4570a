#include "linalg/cholesky.hpp"

#include <cmath>

#include "common/error.hpp"

namespace xpuf::linalg {

Cholesky::Cholesky(const Matrix& spd) {
  XPUF_REQUIRE(spd.rows() == spd.cols(), "Cholesky needs a square matrix");
  const std::size_t n = spd.rows();
  l_ = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = spd(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    if (!(d > 0.0) || !std::isfinite(d))
      throw NumericalError("Cholesky: matrix is not positive definite at pivot " +
                           std::to_string(j));
    const double ljj = std::sqrt(d);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = spd(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / ljj;
    }
  }
}

Vector Cholesky::solve(const Vector& b) const {
  const std::size_t n = l_.rows();
  XPUF_REQUIRE(b.size() == n, "Cholesky solve dimension mismatch");
  // Forward substitution: L y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l_(i, k) * y[k];
    y[i] = s / l_(i, i);
  }
  // Backward substitution: L^T x = y.
  Vector x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l_(k, i) * x[k];
    x[i] = s / l_(i, i);
  }
  return x;
}

}  // namespace xpuf::linalg
