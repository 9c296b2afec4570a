// Tests for the symmetric Jacobi eigensolver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/eigen.hpp"
#include "oracle/linalg_ref.hpp"

namespace xpuf::linalg {
namespace {

using oracle::matmul;
using oracle::max_abs_diff;
using oracle::transposed;

Matrix random_symmetric(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) a(i, j) = a(j, i) = rng.normal();
  return a;
}

TEST(Eigen, DiagonalMatrixIsItsOwnDecomposition) {
  Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 2.0;
  const EigenDecomposition eig = eigen_symmetric(a);
  EXPECT_NEAR(eig.values[0], -1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 2.0;
  const EigenDecomposition eig = eigen_symmetric(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
  // Eigenvector of 3 is (1, 1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(eig.vectors(0, 1)), std::sqrt(0.5), 1e-10);
}

TEST(Eigen, RejectsNonSquare) {
  EXPECT_THROW(eigen_symmetric(Matrix(2, 3)), std::invalid_argument);
}

TEST(Eigen, ReconstructionAndOrthogonality) {
  Rng rng(1);
  const std::size_t n = 8;
  const Matrix a = random_symmetric(n, rng);
  const EigenDecomposition eig = eigen_symmetric(a);
  // A V = V diag(lambda).
  for (std::size_t k = 0; k < n; ++k) {
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = eig.vectors(i, k);
    const Vector av = matvec(a, v);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av[i], eig.values[k] * v[i], 1e-9);
  }
  // V^T V = I.
  const Matrix vtv = matmul(transposed(eig.vectors), eig.vectors);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(n)), 1e-10);
}

TEST(Eigen, ValuesAreSortedAscending) {
  Rng rng(2);
  const EigenDecomposition eig = eigen_symmetric(random_symmetric(10, rng));
  for (std::size_t k = 1; k < 10; ++k) EXPECT_LE(eig.values[k - 1], eig.values[k]);
}

TEST(Eigen, TraceAndFrobeniusInvariants) {
  Rng rng(3);
  const Matrix a = random_symmetric(6, rng);
  const EigenDecomposition eig = eigen_symmetric(a);
  double trace_a = 0.0, trace_l = 0.0, frob2 = 0.0, sum_l2 = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    trace_a += a(i, i);
    trace_l += eig.values[i];
    sum_l2 += eig.values[i] * eig.values[i];
  }
  frob2 = norm_frobenius(a);
  EXPECT_NEAR(trace_a, trace_l, 1e-10);
  EXPECT_NEAR(frob2 * frob2, sum_l2, 1e-8);
}

class EigenSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSizeSweep, ReconstructsRandomSymmetric) {
  const std::size_t n = GetParam();
  Rng rng(50 + n);
  const Matrix a = random_symmetric(n, rng);
  const EigenDecomposition eig = eigen_symmetric(a);
  // Reconstruct A = V diag(lambda) V^T.
  Matrix rec(n, n);
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        rec(i, j) += eig.values[k] * eig.vectors(i, k) * eig.vectors(j, k);
  EXPECT_LT(max_abs_diff(rec, a), 1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSizeSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 16u, 33u));

}  // namespace
}  // namespace xpuf::linalg
