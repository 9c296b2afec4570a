// Tests for the evaluation metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ml/metrics.hpp"

namespace xpuf::ml {
namespace {

TEST(Accuracy, CountsMatchesAtThreshold) {
  const std::vector<double> pred{0.9, 0.1, 0.6, 0.4};
  const std::vector<double> truth{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(accuracy(pred, truth), 0.75);
}

TEST(Accuracy, EmptyIsZeroAndMismatchThrows) {
  EXPECT_DOUBLE_EQ(accuracy({}, {}), 0.0);
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 0.0};
  EXPECT_THROW(accuracy(a, b), std::invalid_argument);
}

TEST(Confusion, CountsAllFourCells) {
  const std::vector<double> pred{1.0, 1.0, 0.0, 0.0, 1.0};
  const std::vector<double> truth{1.0, 0.0, 0.0, 1.0, 1.0};
  const ConfusionMatrix cm = confusion(pred, truth);
  EXPECT_EQ(cm.true_positive, 2u);
  EXPECT_EQ(cm.false_positive, 1u);
  EXPECT_EQ(cm.true_negative, 1u);
  EXPECT_EQ(cm.false_negative, 1u);
  EXPECT_EQ(cm.total(), 5u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(cm.precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 2.0 / 3.0);
  EXPECT_NEAR(cm.f1(), 2.0 / 3.0, 1e-12);
}

TEST(Confusion, UndefinedRatesAreZero) {
  ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(), 0.0);
}

TEST(RegressionErrors, MseRmseMae) {
  const std::vector<double> pred{1.0, 2.0, 3.0};
  const std::vector<double> truth{1.0, 4.0, 3.0};
  EXPECT_NEAR(mse(pred, truth), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(mae(pred, truth), 2.0 / 3.0, 1e-12);
}

TEST(RegressionErrors, PerfectPredictionIsZero) {
  const std::vector<double> v{0.5, -0.25, 3.0};
  EXPECT_DOUBLE_EQ(mse(v, v), 0.0);
  EXPECT_DOUBLE_EQ(mae(v, v), 0.0);
}

TEST(LogLoss, MatchesHandComputedValue) {
  const std::vector<double> p{0.9, 0.2};
  const std::vector<double> t{1.0, 0.0};
  const double expected = (-std::log(0.9) - std::log(0.8)) / 2.0;
  EXPECT_NEAR(log_loss(p, t), expected, 1e-12);
}

TEST(LogLoss, ClipsExtremeProbabilities) {
  const std::vector<double> p{0.0, 1.0};
  const std::vector<double> t{1.0, 0.0};  // totally wrong but must stay finite
  EXPECT_TRUE(std::isfinite(log_loss(p, t)));
  EXPECT_GT(log_loss(p, t), 20.0);
}

TEST(RSquared, PerfectAndBaseline) {
  const std::vector<double> truth{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r_squared(truth, truth), 1.0);
  const std::vector<double> mean_pred{2.5, 2.5, 2.5, 2.5};
  EXPECT_NEAR(r_squared(mean_pred, truth), 0.0, 1e-12);
}

TEST(RSquared, ConstantTruthIsZero) {
  const std::vector<double> pred{1.0, 2.0};
  const std::vector<double> truth{3.0, 3.0};
  EXPECT_DOUBLE_EQ(r_squared(pred, truth), 0.0);
}

}  // namespace
}  // namespace xpuf::ml
