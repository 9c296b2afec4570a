// Tests for the scalar special functions (normal CDF/quantile, logistic
// helpers, summary statistics).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/math.hpp"
#include "sim/linear.hpp"

namespace xpuf {
namespace {

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-10);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-12);
}

TEST(NormalCdf, SymmetryHolds) {
  for (double x : {0.3, 1.7, 2.9, 4.4}) {
    EXPECT_NEAR(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-14);
  }
}

TEST(NormalCdf, FarTailsDoNotSaturateEarly) {
  EXPECT_GT(normal_cdf(-6.0), 0.0);
  EXPECT_NEAR(normal_cdf(-6.0), 9.865876450377018e-10, 1e-15);
  EXPECT_LT(normal_cdf(8.0), 1.0 + 1e-16);
}

// The lazy scan counts (sim::LazyCdfCounter) return `trials` without a draw
// above kNormalCdfOneFrom and 0 below kNormalCdfZeroTo. Both cut-offs are
// properties of the libm's erfc rounding: these tests fail if it rounds
// differently, at the boundary or anywhere past it.
TEST(NormalCdfCutOffs, ExactlyOneFromTheUpperCutOff) {
  const double cut = kNormalCdfOneFrom;
  ASSERT_LT(normal_cdf(std::nextafter(cut, 0.0)), 1.0)
      << "erfc rounds differently: normal_cdf is already 1.0 below kNormalCdfOneFrom";
  double z = cut;
  for (int i = 0; i < 10000; ++i, z = std::nextafter(z, 40.0))
    ASSERT_EQ(normal_cdf(z), 1.0) << "erfc rounds differently at z = " << z;
  for (z = cut; z <= 40.0; z += 0x1p-14) ASSERT_EQ(normal_cdf(z), 1.0) << "z = " << z;
  EXPECT_EQ(normal_cdf(40.0), 1.0);
  EXPECT_EQ(normal_cdf(std::numeric_limits<double>::infinity()), 1.0);
}

TEST(NormalCdfCutOffs, ExactlyZeroUpToTheZeroCutOff) {
  const double cut = kNormalCdfZeroTo;
  ASSERT_GT(normal_cdf(std::nextafter(cut, 0.0)), 0.0)
      << "erfc rounds differently: normal_cdf is still 0.0 above kNormalCdfZeroTo";
  double z = cut;
  for (int i = 0; i < 10000; ++i, z = std::nextafter(z, -40.0))
    ASSERT_EQ(normal_cdf(z), 0.0) << "erfc rounds differently at z = " << z;
  for (z = cut; z >= -40.0; z -= 0x1p-14) ASSERT_EQ(normal_cdf(z), 0.0) << "z = " << z;
  EXPECT_EQ(normal_cdf(-40.0), 0.0);
  EXPECT_EQ(normal_cdf(-std::numeric_limits<double>::infinity()), 0.0);
}

// Below the lower cut-off, Rng::binomial's product n * p stays under 2^-54,
// which is what makes its zero-count exit bound exactly 1 - 2^-40. The
// counter accepts any trials >= 1: check every 16-bit count (the scan's
// retained range) exhaustively at the cut and just below it, powers of two
// beyond, and a dense sweep down to the zero cut-off for a spread of them.
TEST(NormalCdfCutOffs, LowerCutOffKeepsTheBinomialProductBelowTwoToMinus54) {
  auto check = [](std::uint64_t trials) {
    const double n = static_cast<double>(trials);
    const double cut = sim::LazyCdfCounter::lower_cut(trials);
    ASSERT_GT(cut, kNormalCdfZeroTo) << "trials " << trials;
    ASSERT_LT(n * normal_cdf(cut), 0x1p-54) << "trials " << trials;
    ASSERT_LT(n * normal_cdf(std::nextafter(cut, -40.0)), 0x1p-54) << "trials " << trials;
    // The cut is tight: a hundredth above it the product has cleared 2^-54.
    ASSERT_GE(n * normal_cdf(cut + 0.01), 0x1p-54) << "trials " << trials;
  };
  for (std::uint64_t trials = 1; trials <= 65535; ++trials) check(trials);
  for (int b = 16; b < 64; ++b) check(std::uint64_t{1} << b);
  check(std::numeric_limits<std::uint64_t>::max());

  for (const std::uint64_t trials : {1ULL, 200ULL, 10000ULL, 65535ULL, 1ULL << 40}) {
    const double n = static_cast<double>(trials);
    const double cut = sim::LazyCdfCounter::lower_cut(trials);
    for (double z = cut; z > kNormalCdfZeroTo; z -= 0x1p-12)
      ASSERT_LT(n * normal_cdf(z), 0x1p-54) << "trials " << trials << ", z = " << z;
  }
}

// The lazy scan counts' exit table (sim::LazyCdfCounter) bounds every z in
// an interval by the interval's knot nearest 0, which is sound only where
// normal_cdf is monotone. Sweep the table's whole range densely, and walk
// 32 ulps either side of every 2^-7 knot, ulp by ulp.
TEST(NormalCdf, MonotoneAcrossTheExitTableRange) {
  double prev = normal_cdf(-40.0);
  for (double z = -40.0; z <= 9.0; z += 0x1p-12) {
    const double p = normal_cdf(z);
    ASSERT_LE(prev, p) << "z = " << z;
    prev = p;
  }
  for (double k = -12.0 * 128; k <= 9.0 * 128; k += 1.0) {
    double z = k / 128.0;
    for (int i = 0; i < 32; ++i) z = std::nextafter(z, -40.0);
    prev = normal_cdf(z);
    for (int i = 0; i < 64; ++i) {
      z = std::nextafter(z, 40.0);
      const double p = normal_cdf(z);
      ASSERT_LE(prev, p) << "z = " << z;
      prev = p;
    }
  }
}

TEST(NormalCdfBatch, BitwiseMatchesScalarAcrossRegimes) {
  // The batch kernel must be a drop-in for per-element normal_cdf calls:
  // the equivalence proofs for the batched scan paths rely on bitwise
  // identity, not closeness, so compare with EXPECT_EQ on the doubles.
  std::vector<double> xs{0.0,          -0.0,      1.0,    -1.96, 3.0,
                         -6.0,         8.0,       -37.6,  40.0,  1e-300,
                         -1e-300,      5e-324,    -5e-324, 0.5,  -0.5,
                         123.456,      -123.456,  1e300,  -1e300};
  xs.push_back(std::numeric_limits<double>::infinity());
  xs.push_back(-std::numeric_limits<double>::infinity());
  for (int i = -400; i <= 400; ++i) xs.push_back(static_cast<double>(i) / 50.0);
  std::vector<double> out(xs.size(), -1.0);
  normal_cdf_batch(xs, out);
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_EQ(out[i], normal_cdf(xs[i])) << "x = " << xs[i];
}

TEST(NormalCdfBatch, InfinitiesAndNanPropagate) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs{inf, -inf, std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> out(3, -1.0);
  normal_cdf_batch(xs, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_TRUE(std::isnan(out[2]));
}

TEST(NormalCdfBatch, InPlaceOverSameSpan) {
  // The chip batch path divides deltas by sigma in place and then runs the
  // CDF over the same buffer; aliasing input and output must be legal.
  std::vector<double> buf{-2.0, -1.0, 0.0, 1.0, 2.0};
  const std::vector<double> ref{normal_cdf(-2.0), normal_cdf(-1.0), normal_cdf(0.0),
                                normal_cdf(1.0), normal_cdf(2.0)};
  normal_cdf_batch(buf, buf);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], ref[i]);
}

TEST(NormalCdfBatch, EmptySpansAreANoOp) {
  std::vector<double> xs, out;
  normal_cdf_batch(xs, out);
  EXPECT_TRUE(out.empty());
}

TEST(NormalCdfBatch, RejectsLengthMismatch) {
  std::vector<double> xs{0.0, 1.0};
  std::vector<double> out(1, 0.0);
  EXPECT_THROW(normal_cdf_batch(xs, out), std::invalid_argument);
}

TEST(NormalQuantile, InvertsTheCdf) {
  for (double p : {1e-10, 1e-6, 0.001, 0.025, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-9}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-11) << "p = " << p;
  }
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-9);
}

TEST(NormalQuantile, RejectsBoundaries) {
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(-0.5), std::invalid_argument);
}

TEST(Sigmoid, MatchesClosedForm) {
  for (double x : {-30.0, -3.0, 0.0, 2.0, 25.0}) {
    EXPECT_NEAR(sigmoid(x), 1.0 / (1.0 + std::exp(-x)), 1e-12);
  }
}

TEST(Sigmoid, ExtremesAreStable) {
  EXPECT_NEAR(sigmoid(-800.0), 0.0, 1e-300);
  EXPECT_NEAR(sigmoid(800.0), 1.0, 1e-300);
}

TEST(Softplus, MatchesClosedFormAndTails) {
  for (double x : {-5.0, -0.5, 0.0, 0.5, 5.0}) {
    EXPECT_NEAR(softplus(x), std::log1p(std::exp(x)), 1e-12);
  }
  EXPECT_NEAR(softplus(100.0), 100.0, 1e-9);
  EXPECT_NEAR(softplus(-100.0), std::exp(-100.0), 1e-50);
}

TEST(Softplus, DerivativeIdentity) {
  // softplus'(x) = sigmoid(x); check by central difference.
  for (double x : {-2.0, 0.0, 3.0}) {
    const double h = 1e-6;
    const double d = (softplus(x + h) - softplus(x - h)) / (2.0 * h);
    EXPECT_NEAR(d, sigmoid(x), 1e-6);
  }
}

TEST(SummaryStats, MeanVarianceStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(SummaryStats, EdgeCases) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{3.0}), 0.0);
}

TEST(PearsonCorrelation, PerfectAndAnti) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  std::vector<double> ny;
  for (double v : y) ny.push_back(-v);
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(x, ny), -1.0, 1e-12);
}

TEST(PearsonCorrelation, ConstantInputGivesZero) {
  const std::vector<double> x{1.0, 1.0, 1.0};
  const std::vector<double> y{2.0, 5.0, 9.0};
  EXPECT_DOUBLE_EQ(pearson_correlation(x, y), 0.0);
}

TEST(PearsonCorrelation, RejectsLengthMismatch) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> y{1.0};
  EXPECT_THROW(pearson_correlation(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace xpuf
