// Tests for the three-category stability classification and threshold
// derivation (paper Sec 4, Fig 8).
#include <gtest/gtest.h>

#include "puf/enrollment.hpp"
#include "puf/stability.hpp"

namespace xpuf::puf {
namespace {

TEST(MeasuredStable, OnlyExactBinsCount) {
  EXPECT_TRUE(measured_stable(0.0));
  EXPECT_TRUE(measured_stable(1.0));
  EXPECT_FALSE(measured_stable(0.001));
  EXPECT_FALSE(measured_stable(0.999));
  EXPECT_FALSE(measured_stable(0.5));
}

TEST(ThresholdPair, ClassifiesThreeRegions) {
  const ThresholdPair thr{0.2, 0.8};
  EXPECT_EQ(thr.classify(0.1), StableClass::kStable0);
  EXPECT_EQ(thr.classify(-2.0), StableClass::kStable0);
  EXPECT_EQ(thr.classify(0.2), StableClass::kUnstable);  // boundary is unstable
  EXPECT_EQ(thr.classify(0.5), StableClass::kUnstable);
  EXPECT_EQ(thr.classify(0.8), StableClass::kUnstable);
  EXPECT_EQ(thr.classify(0.9), StableClass::kStable1);
  EXPECT_EQ(thr.classify(3.0), StableClass::kStable1);
  EXPECT_TRUE(thr.is_stable(0.1));
  EXPECT_FALSE(thr.is_stable(0.5));
}

TEST(DeriveThresholds, PaperDefinitionOnHandData) {
  // predicted: -0.2  0.1  0.3  0.5  0.7  0.9  1.2
  // measured:   0.0  0.0  0.2  0.5  0.8  1.0  1.0
  const std::vector<double> predicted{-0.2, 0.1, 0.3, 0.5, 0.7, 0.9, 1.2};
  const std::vector<double> measured{0.0, 0.0, 0.2, 0.5, 0.8, 1.0, 1.0};
  const ThresholdPair thr = derive_thresholds(predicted, measured);
  // Lowest prediction with measured > 0.00 is 0.3; highest with measured
  // < 1.00 is 0.7.
  EXPECT_DOUBLE_EQ(thr.thr0, 0.3);
  EXPECT_DOUBLE_EQ(thr.thr1, 0.7);
  // The stable-in-measurement-but-marginal-in-model CRP at predicted 0.1
  // would be KEPT here (0.1 < 0.3); one at 0.35/measured 0.0 would be
  // discarded — matching the paper's "stable in measurement but discarded".
}

TEST(DeriveThresholds, AllStableDataFallsBackToCenter) {
  const std::vector<double> predicted{-0.5, 1.5};
  const std::vector<double> measured{0.0, 1.0};
  const ThresholdPair thr = derive_thresholds(predicted, measured);
  EXPECT_DOUBLE_EQ(thr.thr0, 0.5);
  EXPECT_DOUBLE_EQ(thr.thr1, 0.5);
}

TEST(DeriveThresholds, OneSidedDataUsesLiteralDefinition) {
  // All measured soft responses are < 1.00, so Thr('1') is the highest
  // prediction overall; Thr('0') is the lowest prediction with flips.
  const std::vector<double> predicted{0.1, 0.4};
  const std::vector<double> measured{0.0, 0.3};
  const ThresholdPair thr = derive_thresholds(predicted, measured);
  EXPECT_DOUBLE_EQ(thr.thr0, 0.4);
  EXPECT_DOUBLE_EQ(thr.thr1, 0.4);
}

TEST(DeriveThresholds, AllMeasuredZeroFallsBackOnOneSide) {
  // No CRP ever flipped to '1': Thr('0') has no witness and falls back to
  // the 0.5 center; Thr('1') is the highest prediction seen.
  const std::vector<double> predicted{0.1, 0.4};
  const std::vector<double> measured{0.0, 0.0};
  const ThresholdPair thr = derive_thresholds(predicted, measured);
  EXPECT_DOUBLE_EQ(thr.thr0, 0.5);
  EXPECT_DOUBLE_EQ(thr.thr1, 0.5);  // crossed (0.5 > 0.4) -> collapsed
}

TEST(DeriveThresholds, Validates) {
  EXPECT_THROW(derive_thresholds({}, {}), std::invalid_argument);
  const std::vector<double> a{0.1};
  const std::vector<double> b{0.1, 0.2};
  EXPECT_THROW(derive_thresholds(a, b), std::invalid_argument);
}

TEST(Tighten, ScalesTowardStringency) {
  const ThresholdPair raw{0.3, 0.7};
  const ThresholdPair t = tighten(raw, BetaFactors{0.74, 1.08});
  EXPECT_NEAR(t.thr0, 0.3 * 0.74, 1e-12);
  EXPECT_NEAR(t.thr1, 0.7 * 1.08, 1e-12);
  // Acceptance regions shrink.
  EXPECT_LT(t.thr0, raw.thr0);
  EXPECT_GT(t.thr1, raw.thr1);
}

TEST(Tighten, IdentityBetasChangeNothing) {
  const ThresholdPair raw{0.25, 0.75};
  const ThresholdPair t = tighten(raw, BetaFactors{1.0, 1.0});
  EXPECT_DOUBLE_EQ(t.thr0, raw.thr0);
  EXPECT_DOUBLE_EQ(t.thr1, raw.thr1);
}

TEST(Tighten, NegativeThresholdsStillTighten) {
  // A negative Thr('0'): tightening must move it even lower.
  const ThresholdPair raw{-0.1, 1.2};
  const ThresholdPair t = tighten(raw, BetaFactors{0.8, 1.1});
  EXPECT_LT(t.thr0, raw.thr0);
  EXPECT_GT(t.thr1, raw.thr1);
}

TEST(Tighten, ValidatesBetaRanges) {
  const ThresholdPair raw{0.3, 0.7};
  EXPECT_THROW(tighten(raw, BetaFactors{1.2, 1.1}), std::invalid_argument);
  EXPECT_THROW(tighten(raw, BetaFactors{0.0, 1.1}), std::invalid_argument);
  EXPECT_THROW(tighten(raw, BetaFactors{0.9, 0.9}), std::invalid_argument);
}

TEST(Tighten, TightenedRegionIsSubset) {
  // Every prediction classified stable after tightening was stable before.
  const ThresholdPair raw{0.35, 0.72};
  const ThresholdPair t = tighten(raw, BetaFactors{0.6, 1.4});
  for (double pred = -1.0; pred <= 2.0; pred += 0.01) {
    if (t.is_stable(pred)) { EXPECT_TRUE(raw.is_stable(pred)) << pred; }
  }
}

}  // namespace
}  // namespace xpuf::puf
