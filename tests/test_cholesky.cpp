// Tests for Cholesky factorization and SPD solving.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "oracle/linalg_ref.hpp"

namespace xpuf::linalg {
namespace {

using oracle::matmul;
using oracle::max_abs_diff;
using oracle::transposed;

Matrix random_spd(std::size_t n, Rng& rng) {
  // A = B^T B + n * I is SPD with overwhelming probability.
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.normal();
  Matrix a = gram(b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

TEST(Cholesky, FactorReconstructsMatrix) {
  Rng rng(1);
  const Matrix a = random_spd(5, rng);
  const Cholesky chol(a);
  const Matrix l = chol.factor();
  const Matrix reconstructed = matmul(l, transposed(l));
  EXPECT_LT(max_abs_diff(reconstructed, a), 1e-10);
}

TEST(Cholesky, FactorIsLowerTriangular) {
  Rng rng(2);
  const Cholesky chol(random_spd(4, rng));
  const Matrix& l = chol.factor();
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = r + 1; c < 4; ++c) EXPECT_DOUBLE_EQ(l(r, c), 0.0);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  Rng rng(3);
  const Matrix a = random_spd(6, rng);
  Vector x_true(6);
  for (auto& v : x_true) v = rng.normal();
  const Vector b = matvec(a, x_true);
  const Vector x = Cholesky(a).solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = Matrix::identity(2);
  a(1, 1) = -1.0;
  EXPECT_THROW(Cholesky{a}, NumericalError);
}

TEST(Cholesky, RejectsSingular) {
  // Rank-1 matrix.
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 1.0;
  EXPECT_THROW(Cholesky{a}, NumericalError);
}

TEST(Cholesky, SolveValidatesDimensions) {
  Rng rng(4);
  const Cholesky chol(random_spd(3, rng));
  EXPECT_THROW(chol.solve(Vector(4)), std::invalid_argument);
}

// Property sweep over system sizes: residual of the solve stays tiny.
class CholeskySizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizeSweep, ResidualIsNegligible) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  const Matrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.normal();
  const Vector x = Cholesky(a).solve(b);
  const Vector r = matvec(a, x) - b;
  EXPECT_LT(norm_inf(r), 1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeSweep,
                         ::testing::Values(1u, 2u, 3u, 8u, 16u, 33u, 65u));

}  // namespace
}  // namespace xpuf::linalg
