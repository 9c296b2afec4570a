// Tests for the dense vector type and BLAS-1 kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/vector.hpp"

namespace xpuf::linalg {
namespace {

TEST(Vector, ConstructionVariants) {
  const Vector a(3, 2.0);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[2], 2.0);

  const Vector b{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(b[1], 2.0);

  const Vector c(std::vector<double>{5.0, 6.0});
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(Vector{}.empty());
}

TEST(Vector, AtIsBoundsChecked) {
  Vector v{1.0};
  EXPECT_DOUBLE_EQ(v.at(0), 1.0);
  EXPECT_THROW(v.at(1), std::out_of_range);
}

TEST(Vector, ArithmeticOperators) {
  const Vector a{1.0, 2.0};
  const Vector b{3.0, 5.0};
  EXPECT_EQ(a + b, (Vector{4.0, 7.0}));
  EXPECT_EQ(b - a, (Vector{2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vector{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vector{2.0, 4.0}));
  EXPECT_EQ(b / 2.0, (Vector{1.5, 2.5}));
}

TEST(Vector, MismatchedSizesThrow) {
  Vector a{1.0, 2.0};
  const Vector b{1.0};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
}

TEST(Vector, DivisionByZeroThrows) {
  Vector a{1.0};
  EXPECT_THROW(a /= 0.0, std::invalid_argument);
}

TEST(Vector, FillAndResize) {
  Vector v(2);
  v.fill(7.0);
  EXPECT_DOUBLE_EQ(v[0], 7.0);
  v.resize(4, -1.0);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[3], -1.0);
}

TEST(Dot, ComputesInnerProduct) {
  EXPECT_DOUBLE_EQ(dot(Vector{1.0, 2.0, 3.0}, Vector{4.0, 5.0, 6.0}), 32.0);
  EXPECT_THROW(dot(Vector{1.0}, Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(Norms, EuclideanAndInfinity) {
  const Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(v), 4.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vector{}), 0.0);
}

TEST(Axpy, AccumulatesScaledVector) {
  const Vector x{1.0, 2.0};
  Vector y{10.0, 20.0};
  axpy(0.5, x, y);
  EXPECT_EQ(y, (Vector{10.5, 21.0}));
  Vector bad{1.0};
  EXPECT_THROW(axpy(1.0, x, bad), std::invalid_argument);
}

TEST(AllFinite, DetectsNonFiniteEntries) {
  EXPECT_TRUE(all_finite(Vector{1.0, -2.0}));
  EXPECT_FALSE(all_finite(Vector{1.0, std::nan("")}));
  EXPECT_FALSE(all_finite(Vector{1.0, std::numeric_limits<double>::infinity()}));
  EXPECT_TRUE(all_finite(Vector{}));
}

TEST(Vector, SpanViewsShareStorage) {
  Vector v{1.0, 2.0, 3.0};
  auto s = v.span();
  s[1] = 9.0;
  EXPECT_DOUBLE_EQ(v[1], 9.0);
  const Vector& cv = v;
  EXPECT_DOUBLE_EQ(cv.span()[1], 9.0);
}

TEST(Vector, RangeForIterates) {
  const Vector v{1.0, 2.0, 3.0};
  double sum = 0.0;
  for (double x : v) sum += x;
  EXPECT_DOUBLE_EQ(sum, 6.0);
}

}  // namespace
}  // namespace xpuf::linalg
