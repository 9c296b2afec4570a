// Householder QR factorization — the numerically robust least-squares path
// (used when the normal equations are ill-conditioned, and by tests as a
// reference solver).
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

  /// Applies Q^T to a length-m vector.
  Vector apply_qt(const Vector& b) const;

 private:
  Matrix qr_;                // Householder vectors below the diagonal, R on/above
  std::vector<double> tau_;  // reflector scales
  std::size_t m_ = 0, n_ = 0;
};

}  // namespace xpuf::linalg
