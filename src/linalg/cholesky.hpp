// Cholesky factorization and SPD solves — the normal-equations path used by
// the linear-regression enrollment model.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace xpuf::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
/// Throws NumericalError if a pivot is not strictly positive.
class Cholesky {
 public:
  explicit Cholesky(const Matrix& spd);

  /// Solves A x = b using the stored factor (forward + backward substitution).
  Vector solve(const Vector& b) const;

  /// The factor L with A = L L^T.
  const Matrix& factor() const { return l_; }

 private:
  Matrix l_;
};

}  // namespace xpuf::linalg
