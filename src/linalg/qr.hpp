// Householder QR factorization — the numerically robust least-squares path
// (solve_least_squares falls back to it when the normal equations break
// down; tests also use it as a reference solver).
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace xpuf::linalg {

/// Thin QR of an m x n matrix (m >= n) via Householder reflections.
class QR {
 public:
  explicit QR(const Matrix& a);

  /// Minimum-norm least-squares solution of A x ~= b (m >= n, full rank).
  /// Throws NumericalError on (numerically) rank-deficient input.
  Vector solve(const Vector& b) const;

  /// Upper-triangular R (n x n).
  Matrix r() const;

 private:
  /// Applies Q^T to a length-m vector.
  Vector apply_qt(const Vector& b) const;

  Matrix qr_;                // Householder vectors below the diagonal, R on/above
  std::vector<double> tau_;  // reflector scales
  std::size_t m_ = 0, n_ = 0;
};

}  // namespace xpuf::linalg
