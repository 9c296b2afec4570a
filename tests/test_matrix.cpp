// Tests for the dense matrix type and BLAS-2/3 kernels.
#include <gtest/gtest.h>

#include <array>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "oracle/linalg_ref.hpp"

namespace xpuf::linalg {
namespace {

using oracle::from_rows;
using oracle::matmul;
using oracle::max_abs_diff;
using oracle::transposed;

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
  EXPECT_TRUE(Matrix{}.empty());
}

TEST(Matrix, FromRowsValidatesShape) {
  const Matrix m = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(from_rows({{1.0}, {2.0, 3.0}}), std::invalid_argument);
  EXPECT_TRUE(from_rows({}).empty());
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, TransposeSwapsIndices) {
  const Matrix m = from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const Matrix t = transposed(m);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, AdditionSubtractionScaling) {
  const Matrix a = from_rows({{1.0, 2.0}});
  const Matrix b = from_rows({{10.0, 20.0}});
  EXPECT_EQ(a + b, from_rows({{11.0, 22.0}}));
  EXPECT_EQ(b - a, from_rows({{9.0, 18.0}}));
  EXPECT_EQ(a * 3.0, from_rows({{3.0, 6.0}}));
  Matrix bad(2, 1);
  EXPECT_THROW(bad += a, std::invalid_argument);
}

TEST(Matvec, MultipliesCorrectly) {
  const Matrix a = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Vector x{1.0, 1.0};
  EXPECT_EQ(matvec(a, x), (Vector{3.0, 7.0}));
  EXPECT_THROW(matvec(a, Vector{1.0}), std::invalid_argument);
}

TEST(MatvecTransposed, MatchesExplicitTranspose) {
  Rng rng(1);
  Matrix a(4, 3);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.normal();
  Vector x(4);
  for (auto& v : x) v = rng.normal();
  const Vector direct = matvec_transposed(a, x);
  const Vector reference = matvec(transposed(a), x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(direct[i], reference[i], 1e-12);
}

TEST(Matmul, KnownProduct) {
  const Matrix a = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix b = from_rows({{5.0, 6.0}, {7.0, 8.0}});
  const Matrix c = matmul(a, b);
  EXPECT_EQ(c, from_rows({{19.0, 22.0}, {43.0, 50.0}}));
  EXPECT_THROW(matmul(a, Matrix(3, 2)), std::invalid_argument);
}

TEST(Matmul, IdentityIsNeutral) {
  Rng rng(2);
  Matrix a(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.normal();
  EXPECT_LT(max_abs_diff(matmul(a, Matrix::identity(3)), a), 1e-14);
  EXPECT_LT(max_abs_diff(matmul(Matrix::identity(3), a), a), 1e-14);
}

TEST(Gram, MatchesExplicitProduct) {
  Rng rng(3);
  Matrix a(5, 3);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.normal();
  const Matrix g = gram(a);
  const Matrix reference = matmul(transposed(a), a);
  EXPECT_LT(max_abs_diff(g, reference), 1e-12);
  // Symmetry.
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
}

TEST(NormFrobenius, KnownValue) {
  const Matrix m = from_rows({{3.0, 0.0}, {0.0, 4.0}});
  EXPECT_DOUBLE_EQ(norm_frobenius(m), 5.0);
}

TEST(MaxAbsDiff, DetectsLargestDeviation) {
  const Matrix a = from_rows({{1.0, 2.0}});
  const Matrix b = from_rows({{1.5, 2.1}});
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_THROW(max_abs_diff(a, Matrix(2, 2)), std::invalid_argument);
}

namespace {
Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  return m;
}
}  // namespace

TEST(MatmulBlocked, MatchesNaiveOnNonSquareShapes) {
  Rng rng(11);
  // Shapes chosen to straddle the kernel's row-chunk and k-block sizes.
  for (const auto [m, k, n] : {std::array<std::size_t, 3>{17, 5, 9},
                               {3, 130, 7},
                               {65, 64, 33},
                               {1, 200, 1}}) {
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    EXPECT_LT(max_abs_diff(matmul_blocked(a, b), matmul(a, b)), 1e-12)
        << m << "x" << k << " * " << k << "x" << n;
  }
}

TEST(MatmulBlocked, TinyAndDegenerateShapes) {
  const Matrix a = from_rows({{2.0}});
  EXPECT_EQ(matmul_blocked(a, from_rows({{3.0}})),
            from_rows({{6.0}}));
  // Zero-dimension operands: empty result of the right shape, no crash.
  const Matrix zero_rows(0, 4);
  const Matrix c = matmul_blocked(zero_rows, Matrix(4, 3));
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 3u);
  const Matrix d = matmul_blocked(Matrix(3, 0), Matrix(0, 2));
  EXPECT_EQ(d.rows(), 3u);
  EXPECT_EQ(d.cols(), 2u);
  EXPECT_LT(max_abs_diff(d, Matrix(3, 2, 0.0)), 1e-300);
  EXPECT_THROW(matmul_blocked(Matrix(2, 3), Matrix(4, 2)), std::invalid_argument);
}

TEST(MatmulNt, MatchesExplicitTranspose) {
  Rng rng(12);
  const Matrix a = random_matrix(19, 6, rng);
  const Matrix bt = random_matrix(11, 6, rng);  // B^T stored row-major
  EXPECT_LT(max_abs_diff(matmul_nt(a, bt), matmul(a, transposed(bt))), 1e-12);
  EXPECT_THROW(matmul_nt(Matrix(2, 3), Matrix(4, 5)), std::invalid_argument);
}

TEST(MatmulTn, MatchesExplicitTranspose) {
  Rng rng(13);
  // Tall inputs so the row-chunked partial accumulation spans many chunks.
  const Matrix a = random_matrix(1'000, 4, rng);
  const Matrix b = random_matrix(1'000, 7, rng);
  EXPECT_LT(max_abs_diff(matmul_tn(a, b), matmul(transposed(a), b)), 1e-9);
  EXPECT_THROW(matmul_tn(Matrix(2, 3), Matrix(4, 5)), std::invalid_argument);
}

TEST(Matrix, RowPointerIsContiguous) {
  Matrix m(2, 3);
  m(1, 0) = 7.0;
  m(1, 2) = 9.0;
  const double* row = m.row(1);
  EXPECT_DOUBLE_EQ(row[0], 7.0);
  EXPECT_DOUBLE_EQ(row[2], 9.0);
}

}  // namespace
}  // namespace xpuf::linalg
