// Tests for Householder QR and QR-based least squares.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"

namespace xpuf::linalg {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  Matrix a(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
  return a;
}

TEST(QR, SolvesSquareSystemExactly) {
  Rng rng(1);
  const Matrix a = random_matrix(5, 5, rng);
  Vector x_true(5);
  for (auto& v : x_true) v = rng.normal();
  const Vector b = matvec(a, x_true);
  const Vector x = QR(a).solve(b);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(QR, LeastSquaresMatchesNormalEquations) {
  Rng rng(2);
  const Matrix a = random_matrix(50, 6, rng);
  Vector b(50);
  for (auto& v : b) v = rng.normal();
  const Vector x_qr = QR(a).solve(b);
  const Vector x_ne = Cholesky(gram(a)).solve(matvec_transposed(a, b));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x_qr[i], x_ne[i], 1e-8);
}

TEST(QR, ResidualIsOrthogonalToColumns) {
  Rng rng(3);
  const Matrix a = random_matrix(30, 4, rng);
  Vector b(30);
  for (auto& v : b) v = rng.normal();
  const Vector x = QR(a).solve(b);
  Vector r = matvec(a, x) - b;
  const Vector atr = matvec_transposed(a, r);
  EXPECT_LT(norm_inf(atr), 1e-9);
}

TEST(QR, RejectsWideMatrices) {
  EXPECT_THROW(QR(Matrix(2, 3)), std::invalid_argument);
}

TEST(QR, DetectsRankDeficiency) {
  // Two identical columns.
  Matrix a(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    a(r, 0) = static_cast<double>(r + 1);
    a(r, 1) = static_cast<double>(r + 1);
  }
  const QR qr(a);
  EXPECT_LT(std::fabs(qr.r()(1, 1)), 1e-12);
  EXPECT_THROW(qr.solve(Vector(4, 1.0)), NumericalError);
}

TEST(QR, RDiagonalMagnitudeMatchesColumnNorm) {
  // For a single column, |R(0,0)| is the column 2-norm.
  Matrix a(3, 1);
  a(0, 0) = 1.0;
  a(1, 0) = 2.0;
  a(2, 0) = 2.0;
  EXPECT_NEAR(std::fabs(QR(a).r()(0, 0)), 3.0, 1e-12);
}

TEST(QR, HandlesZeroColumnGracefully) {
  Matrix a(3, 2);
  a(0, 1) = 1.0;  // first column all zero
  EXPECT_LT(std::fabs(QR(a).r()(0, 0)), 1e-12);
}

// Parameterized shape sweep: planted solutions are recovered for tall
// systems of many shapes when the observations are noise-free.
struct QrShape {
  std::size_t m, n;
};

class QrShapeSweep : public ::testing::TestWithParam<QrShape> {};

TEST_P(QrShapeSweep, RecoversPlantedSolution) {
  const auto [m, n] = GetParam();
  Rng rng(10 * m + n);
  const Matrix a = random_matrix(m, n, rng);
  Vector x_true(n);
  for (auto& v : x_true) v = rng.normal();
  const Vector b = matvec(a, x_true);
  const Vector x = QR(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapeSweep,
                         ::testing::Values(QrShape{3, 3}, QrShape{10, 2}, QrShape{33, 33},
                                           QrShape{100, 33}, QrShape{64, 1},
                                           QrShape{200, 65}));

}  // namespace
}  // namespace xpuf::linalg
