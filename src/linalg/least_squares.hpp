// Least-squares front end: the fast normal-equations path, falling back to
// Householder QR when the Gram matrix is not positive definite.
//
// This is the core numerical kernel of the paper's enrollment scheme: the
// server fits each arbiter PUF's delay-parameter vector w by regressing
// measured soft responses on the transformed challenge features (Sec 4).
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace xpuf::linalg {

struct LeastSquaresResult {
  Vector coefficients;    ///< fitted x
  double r_squared = 0;  ///< 1 - RSS/TSS against mean(b)
};

/// Solves min_x ||A x - b||^2: normal equations (A^T A via Cholesky), or QR
/// when the Cholesky factorization breaks down (a singular Gram matrix).
LeastSquaresResult solve_least_squares(const Matrix& a, const Vector& b);

}  // namespace xpuf::linalg
