#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace xpuf::linalg {

EigenDecomposition eigen_symmetric(const Matrix& a, std::size_t max_sweeps) {
  XPUF_REQUIRE(a.rows() == a.cols(), "eigen_symmetric needs a square matrix");
  const std::size_t n = a.rows();
  // Work on the symmetrized copy.
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = 0.5 * (a(i, j) + a(j, i));
  Matrix v = Matrix::identity(n);

  auto off_diagonal_norm = [&m, n] {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) s += m(i, j) * m(i, j);
    return std::sqrt(2.0 * s);
  };

  const double tol = 1e-14 * std::max(1.0, norm_frobenius(m));
  std::size_t sweeps = 0;
  while (off_diagonal_norm() > tol) {
    if (++sweeps > max_sweeps)
      throw NumericalError("Jacobi eigensolver did not converge");
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::fabs(apq) <= tol / static_cast<double>(n)) continue;
        const double app = m(p, p);
        const double aqq = m(q, q);
        // Rotation angle eliminating m(p, q).
        const double theta = 0.5 * (aqq - app) / apq;
        const double t = std::copysign(1.0, theta) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation to rows/columns p and q.
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs ascending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&m](std::size_t i, std::size_t j) { return m(i, i) < m(j, j); });

  EigenDecomposition out;
  out.values = Vector(n);
  out.vectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = m(order[k], order[k]);
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, k) = v(i, order[k]);
  }
  return out;
}

}  // namespace xpuf::linalg
