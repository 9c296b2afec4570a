// Tests for GF(2^m) arithmetic and polynomials over it.
#include <gtest/gtest.h>

#include "crypto/gf2m.hpp"

namespace xpuf::crypto {
namespace {

TEST(GF2m, ConstructionValidatesM) {
  EXPECT_THROW(GF2m(1), std::invalid_argument);
  EXPECT_THROW(GF2m(17), std::invalid_argument);
  EXPECT_NO_THROW(GF2m(2));
  EXPECT_NO_THROW(GF2m(16));
}

TEST(GF2m, SizesAndOrders) {
  const GF2m f(4);
  EXPECT_EQ(f.m(), 4u);
  EXPECT_EQ(f.size(), 16u);
  EXPECT_EQ(f.order(), 15u);
}

TEST(GF2m, AlphaGeneratesTheMultiplicativeGroup) {
  const GF2m f(5);
  std::set<std::uint32_t> seen;
  for (std::uint32_t k = 0; k < f.order(); ++k) seen.insert(f.alpha_pow(k));
  EXPECT_EQ(seen.size(), f.order());  // all nonzero elements hit once
  EXPECT_EQ(seen.count(0), 0u);
}

TEST(GF2m, LogAndExpAreInverse) {
  const GF2m f(6);
  for (std::uint32_t x = 1; x < f.size(); ++x)
    EXPECT_EQ(f.alpha_pow(f.log(x)), x);
  EXPECT_THROW(f.log(0), std::invalid_argument);
}

TEST(GF2m, NegativeExponentsWrap) {
  const GF2m f(4);
  EXPECT_EQ(f.alpha_pow(-1), f.inv(f.alpha_pow(1)));
  EXPECT_EQ(f.alpha_pow(-15), f.alpha_pow(0));
  EXPECT_EQ(f.alpha_pow(30), f.alpha_pow(0));
}

TEST(GF2m, MultiplicationAgainstKnownGF16) {
  // GF(16) with x^4 + x + 1: alpha^4 = alpha + 1 = 0b0011 = 3.
  const GF2m f(4);
  EXPECT_EQ(f.alpha_pow(4), 3u);
  EXPECT_EQ(f.mul(2, 2), 4u);        // alpha * alpha = alpha^2
  EXPECT_EQ(f.mul(8, 2), 3u);        // alpha^3 * alpha = alpha^4 = 3
  EXPECT_EQ(f.mul(0, 7), 0u);
  EXPECT_EQ(f.mul(1, 9), 9u);
}

TEST(GF2m, InverseAndDivision) {
  const GF2m f(5);
  for (std::uint32_t x = 1; x < f.size(); ++x) {
    EXPECT_EQ(f.mul(x, f.inv(x)), 1u);
    EXPECT_EQ(f.div(x, x), 1u);
  }
  EXPECT_THROW(f.inv(0), std::invalid_argument);
  EXPECT_THROW(f.div(3, 0), std::invalid_argument);
  EXPECT_EQ(f.div(0, 5), 0u);
}

TEST(GF2m, PowMatchesRepeatedMultiplication) {
  const GF2m f(4);
  for (std::uint32_t a = 1; a < f.size(); ++a) {
    std::uint32_t acc = 1;
    for (int k = 0; k <= 6; ++k) {
      EXPECT_EQ(f.pow(a, k), acc) << "a=" << a << " k=" << k;
      acc = f.mul(acc, a);
    }
  }
  EXPECT_EQ(f.pow(0, 3), 0u);
  EXPECT_THROW(f.pow(0, 0), std::invalid_argument);
}

// Field-axiom property sweep across all supported small fields.
class GF2mAxiomSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(GF2mAxiomSweep, DistributivityAndAssociativityHold) {
  const GF2m f(GetParam());
  // Exhaustive for tiny fields, strided for larger ones.
  const std::uint32_t stride = f.size() <= 32 ? 1 : f.size() / 17;
  for (std::uint32_t a = 0; a < f.size(); a += stride)
    for (std::uint32_t b = 1; b < f.size(); b += stride)
      for (std::uint32_t c = 1; c < f.size(); c += stride) {
        EXPECT_EQ(f.mul(a, GF2m::add(b, c)), GF2m::add(f.mul(a, b), f.mul(a, c)));
        EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        EXPECT_EQ(f.mul(a, b), f.mul(b, a));
      }
}

INSTANTIATE_TEST_SUITE_P(Fields, GF2mAxiomSweep, ::testing::Values(2u, 3u, 4u, 7u, 8u));

TEST(GFPoly, NormalizationAndDegree) {
  EXPECT_TRUE(GFPoly::zero().is_zero());
  EXPECT_EQ(GFPoly::zero().degree(), -1);
  EXPECT_EQ(GFPoly({1, 0, 0}).degree(), 0);
  EXPECT_EQ(GFPoly({0, 0, 5}).degree(), 2);
  EXPECT_EQ(GFPoly::one().degree(), 0);
}

TEST(GFPoly, MultiplicationAgainstHandComputation) {
  const GF2m f(4);
  // (x + 1)(x + 1) = x^2 + 1 over GF(2) subset.
  const GFPoly xp1({1, 1});
  EXPECT_EQ(xp1.times(xp1, f), GFPoly({1, 0, 1}));
  EXPECT_TRUE(xp1.times(GFPoly::zero(), f).is_zero());
}

TEST(GFPoly, ModuloReducesBelowDivisorDegree) {
  const GF2m f(4);
  const GFPoly dividend({1, 2, 3, 4, 5});
  const GFPoly divisor({1, 1, 1});
  const GFPoly r = dividend.mod(divisor, f);
  EXPECT_LT(r.degree(), divisor.degree());
  EXPECT_THROW(dividend.mod(GFPoly::zero(), f), std::invalid_argument);
  // Exactness: (q*d + r) reconstruction check via evaluation at points.
  for (std::uint32_t x = 0; x < f.size(); ++x) {
    if (divisor.evaluate(x, f) != 0) continue;
    // At roots of the divisor, dividend == remainder.
    EXPECT_EQ(dividend.evaluate(x, f), r.evaluate(x, f));
  }
}

TEST(GFPoly, EvaluationHorner) {
  const GF2m f(4);
  const GFPoly p({3, 0, 1});  // x^2 + 3
  for (std::uint32_t x = 0; x < f.size(); ++x)
    EXPECT_EQ(p.evaluate(x, f), GF2m::add(f.mul(x, x), 3));
}

}  // namespace
}  // namespace xpuf::crypto
