// Tests for the least-squares front end (normal equations with the QR
// fallback, R^2).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/qr.hpp"

namespace xpuf::linalg {
namespace {

struct Problem {
  Matrix a;
  Vector b;
  Vector x_true;
};

Problem planted_problem(std::size_t m, std::size_t n, double noise, Rng& rng) {
  Problem p;
  p.a = Matrix(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) p.a(r, c) = rng.normal();
  p.x_true = Vector(n);
  for (auto& v : p.x_true) v = rng.normal();
  p.b = matvec(p.a, p.x_true);
  for (auto& v : p.b) v += rng.normal(0.0, noise);
  return p;
}

TEST(LeastSquares, NoiseFreeRecoveryAllMethods) {
  // The normal-equations path and the QR path it falls back to.
  Rng rng(1);
  const Problem p = planted_problem(40, 5, 0.0, rng);
  const auto res = solve_least_squares(p.a, p.b);
  const Vector qr = QR(p.a).solve(p.b);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(res.coefficients[i], p.x_true[i], 1e-8);
    EXPECT_NEAR(qr[i], p.x_true[i], 1e-8);
  }
  EXPECT_NEAR(res.r_squared, 1.0, 1e-10);
}

TEST(LeastSquares, NoisyProblemStillCloseAndConsistent) {
  Rng rng(2);
  const Problem p = planted_problem(500, 4, 0.1, rng);
  const auto ne = solve_least_squares(p.a, p.b);
  const Vector qr = QR(p.a).solve(p.b);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(ne.coefficients[i], qr[i], 1e-8);
    EXPECT_NEAR(ne.coefficients[i], p.x_true[i], 0.05);
  }
  EXPECT_GT(ne.r_squared, 0.95);
}

TEST(LeastSquares, AutoFallsBackToQrOnSingularGram) {
  // Lauchli's matrix: A has full column rank, but 1 + eps^2 rounds to 1, so
  // the computed Gram matrix is exactly singular and Cholesky breaks down.
  // The solve must then come from QR, which sees the eps rows.
  const double eps = 1e-9;
  Matrix a(3, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  a(1, 0) = eps;
  a(2, 1) = eps;
  EXPECT_THROW(Cholesky{gram(a)}, NumericalError);
  const Vector b{3.0, eps, 2.0 * eps};  // A (1, 2)
  const auto res = solve_least_squares(a, b);
  EXPECT_NEAR(res.coefficients[0], 1.0, 1e-5);
  EXPECT_NEAR(res.coefficients[1], 2.0, 1e-5);

  // A duplicated column is singular for QR too: NumericalError, rather
  // than garbage.
  Matrix dup(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    dup(r, 0) = static_cast<double>(r + 1);
    dup(r, 1) = static_cast<double>(r + 1);
  }
  const Vector b4{1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(solve_least_squares(dup, b4), NumericalError);
}

TEST(LeastSquares, RejectsUnderdeterminedAndMismatched) {
  EXPECT_THROW(solve_least_squares(Matrix(2, 3), Vector(2)), std::invalid_argument);
  EXPECT_THROW(solve_least_squares(Matrix(3, 2), Vector(2)), std::invalid_argument);
}

TEST(LeastSquares, RSquaredZeroForConstantTarget) {
  Rng rng(5);
  Matrix a(10, 2);
  for (std::size_t r = 0; r < 10; ++r) {
    a(r, 0) = rng.normal();
    a(r, 1) = 1.0;
  }
  const Vector b(10, 3.0);  // constant target: TSS = 0
  const auto res = solve_least_squares(a, b);
  EXPECT_DOUBLE_EQ(res.r_squared, 0.0);
  EXPECT_NEAR(res.coefficients[1], 3.0, 1e-9);
}

}  // namespace
}  // namespace xpuf::linalg
