// Symmetric eigendecomposition (cyclic Jacobi) — needed by CMA-ES to sample
// from N(m, sigma^2 C).
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace xpuf::linalg {

struct EigenDecomposition {
  /// Eigenvalues in ascending order.
  Vector values;
  /// Column k of `vectors` is the unit eigenvector for values[k].
  Matrix vectors;
};

/// Eigendecomposition of a symmetric matrix via the cyclic Jacobi method.
/// The input is symmetrized ((A + A^T)/2) to absorb round-off asymmetry;
/// genuinely non-symmetric input is a precondition violation.
/// Throws NumericalError if the sweep limit is exceeded (pathological input).
EigenDecomposition eigen_symmetric(const Matrix& a, std::size_t max_sweeps = 64);

}  // namespace xpuf::linalg
