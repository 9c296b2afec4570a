// Tests for OLS linear regression (the paper's enrollment model).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ml/linear_regression.hpp"

namespace xpuf::ml {
namespace {

Dataset planted(std::size_t n, const std::vector<double>& coef, double intercept,
                double noise, Rng& rng) {
  Dataset data;
  data.x = linalg::Matrix(n, coef.size());
  data.y = linalg::Vector(n);
  for (std::size_t r = 0; r < n; ++r) {
    double y = intercept;
    for (std::size_t c = 0; c < coef.size(); ++c) {
      data.x(r, c) = rng.normal();
      y += coef[c] * data.x(r, c);
    }
    data.y[r] = y + rng.normal(0.0, noise);
  }
  return data;
}

TEST(LinearRegression, RecoversCoefficientsNoIntercept) {
  Rng rng(1);
  const Dataset data = planted(200, {2.0, -1.5, 0.5}, 0.0, 0.0, rng);
  LinearRegression reg;
  reg.fit(data);
  ASSERT_TRUE(reg.fitted());
  EXPECT_NEAR(reg.coefficients()[0], 2.0, 1e-9);
  EXPECT_NEAR(reg.coefficients()[1], -1.5, 1e-9);
  EXPECT_NEAR(reg.coefficients()[2], 0.5, 1e-9);
  EXPECT_NEAR(reg.train_r_squared(), 1.0, 1e-12);
}

TEST(LinearRegression, WithoutInterceptMissesOffset) {
  Rng rng(3);
  const Dataset data = planted(300, {1.0}, 5.0, 0.0, rng);
  LinearRegression reg;  // no intercept
  reg.fit(data);
  // The offset cannot be represented; r^2 must suffer.
  EXPECT_LT(reg.train_r_squared(), 0.9);
}

TEST(LinearRegression, PredictSingleAndBatchAgree) {
  Rng rng(4);
  const Dataset data = planted(100, {0.7, -0.3}, 0.0, 0.05, rng);
  LinearRegression reg;
  reg.fit(data);
  const linalg::Vector batch = reg.predict(data.x);
  for (std::size_t r = 0; r < 5; ++r) {
    const std::vector<double> row{data.x(r, 0), data.x(r, 1)};
    EXPECT_DOUBLE_EQ(reg.predict(row), batch[r]);
  }
}

TEST(LinearRegression, ErrorsOnMisuse) {
  LinearRegression reg;
  EXPECT_THROW(reg.fit(Dataset{}), std::invalid_argument);
  const std::vector<double> row{1.0};
  EXPECT_THROW(reg.predict(row), std::invalid_argument);
  Rng rng(6);
  const Dataset data = planted(10, {1.0, 2.0}, 0.0, 0.0, rng);
  reg.fit(data);
  const std::vector<double> bad{1.0, 2.0, 3.0};
  EXPECT_THROW(reg.predict(bad), std::invalid_argument);
}

TEST(LinearRegression, SaturatedTargetsKeepDirection) {
  // Mimics enrollment: targets are Phi(w.x / sigma) clipped to mostly 0/1;
  // OLS must still recover the *direction* of w.
  Rng rng(7);
  const std::vector<double> w{1.0, -2.0, 0.5, 3.0};
  Dataset data;
  data.x = linalg::Matrix(2000, 4);
  data.y = linalg::Vector(2000);
  for (std::size_t r = 0; r < 2000; ++r) {
    double z = 0.0;
    for (std::size_t c = 0; c < 4; ++c) {
      data.x(r, c) = rng.bernoulli() ? 1.0 : -1.0;
      z += w[c] * data.x(r, c);
    }
    data.y[r] = z > 1.0 ? 1.0 : (z < -1.0 ? 0.0 : 0.5 + 0.4 * z);
  }
  LinearRegression reg;
  reg.fit(data);
  // Direction: signs and ordering of magnitudes preserved.
  EXPECT_GT(reg.coefficients()[0], 0.0);
  EXPECT_LT(reg.coefficients()[1], 0.0);
  EXPECT_GT(reg.coefficients()[3], reg.coefficients()[0]);
}

}  // namespace
}  // namespace xpuf::ml
