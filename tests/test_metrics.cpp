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
