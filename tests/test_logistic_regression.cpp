// Tests for logistic regression (gradient correctness, learning behavior).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/metrics.hpp"

namespace xpuf::ml {
namespace {

/// Mean binary cross-entropy of probabilities against 0/1 targets, clipped
/// at 1e-12.
double log_loss(const linalg::Vector& probabilities, const linalg::Vector& truth) {
  double s = 0.0;
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    const double p = std::clamp(probabilities[i], 1e-12, 1.0 - 1e-12);
    s += truth[i] >= 0.5 ? -std::log(p) : -std::log1p(-p);
  }
  return s / static_cast<double>(probabilities.size());
}

Dataset linearly_separable(std::size_t n, Rng& rng) {
  // Label = sign(x0 + 2 x1 - 0.5 x2) with a margin.
  Dataset data;
  data.x = linalg::Matrix(n, 3);
  data.y = linalg::Vector(n);
  std::size_t r = 0;
  while (r < n) {
    const double x0 = rng.normal(), x1 = rng.normal(), x2 = rng.normal();
    const double z = x0 + 2.0 * x1 - 0.5 * x2;
    if (std::fabs(z) < 0.3) continue;  // enforce a margin
    data.x(r, 0) = x0;
    data.x(r, 1) = x1;
    data.x(r, 2) = x2;
    data.y[r] = z > 0.0 ? 1.0 : 0.0;
    ++r;
  }
  return data;
}

TEST(LogisticRegression, FitsSeparableDataPerfectly) {
  Rng rng(1);
  const Dataset data = linearly_separable(400, rng);
  LogisticRegression lr;
  const LbfgsResult fit = lr.fit(data);
  EXPECT_TRUE(lr.fitted());
  const linalg::Vector probs = lr.predict_probability(data.x);
  EXPECT_GE(accuracy(probs.span(), data.y.span()), 0.99);
  EXPECT_GT(fit.iterations, 0u);
}

TEST(LogisticRegression, RecoversWeightDirection) {
  Rng rng(2);
  const Dataset data = linearly_separable(2000, rng);
  LogisticRegressionOptions opts;
  opts.l2 = 1e-3;  // keep weights finite on separable data
  LogisticRegression lr(opts);
  lr.fit(data);
  const auto& w = lr.weights();
  // True direction (1, 2, -0.5): check sign pattern and ratio.
  EXPECT_GT(w[0], 0.0);
  EXPECT_GT(w[1], 0.0);
  EXPECT_LT(w[2], 0.0);
  EXPECT_NEAR(w[1] / w[0], 2.0, 0.3);
}

TEST(LogisticRegression, GradientMatchesFiniteDifferences) {
  Rng rng(3);
  Dataset data;
  data.x = linalg::Matrix(20, 4);
  data.y = linalg::Vector(20);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 4; ++c) data.x(r, c) = rng.normal();
    data.y[r] = rng.bernoulli() ? 1.0 : 0.0;
  }
  // Reconstruct the objective exactly as the class defines it.
  const double l2 = 1e-2;
  auto loss_at = [&](const linalg::Vector& w) {
    double loss = 0.0;
    for (std::size_t r = 0; r < data.size(); ++r) {
      double z = 0.0;
      for (std::size_t c = 0; c < 4; ++c) z += data.x(r, c) * w[c];
      loss += data.y[r] > 0.5 ? softplus(-z) : softplus(z);
    }
    loss /= static_cast<double>(data.size());
    for (std::size_t c = 0; c < 4; ++c) loss += 0.5 * l2 * w[c] * w[c];
    return loss;
  };

  // Fit briefly, then compare the analytic optimum condition: at the
  // optimum, finite-difference gradient ~ 0 in every direction.
  LogisticRegressionOptions opts;
  opts.l2 = l2;
  LogisticRegression lr(opts);
  const LbfgsResult fit = lr.fit(data);
  EXPECT_TRUE(fit.converged) << fit.message;
  const linalg::Vector w = lr.weights();
  const double f0 = loss_at(w);
  for (std::size_t c = 0; c < 4; ++c) {
    linalg::Vector wp = w;
    wp[c] += 1e-5;
    EXPECT_GT(loss_at(wp), f0 - 1e-9) << "direction " << c;
  }
}

TEST(LogisticRegression, ProbabilitiesAreCalibratedOnNoisyData) {
  // Targets generated from a known sigmoid model; fitted probabilities must
  // have small log-loss relative to the Bayes loss.
  Rng rng(4);
  Dataset data;
  const std::size_t n = 5000;
  data.x = linalg::Matrix(n, 2);
  data.y = linalg::Vector(n);
  double bayes = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    data.x(r, 0) = rng.normal();
    data.x(r, 1) = rng.normal();
    const double p = sigmoid(1.5 * data.x(r, 0) - 1.0 * data.x(r, 1));
    data.y[r] = rng.bernoulli(p) ? 1.0 : 0.0;
    bayes += data.y[r] > 0.5 ? -std::log(p) : -std::log1p(-p);
  }
  bayes /= static_cast<double>(n);
  LogisticRegression lr;
  lr.fit(data);
  const linalg::Vector probs = lr.predict_probability(data.x);
  EXPECT_LT(log_loss(probs, data.y), bayes + 0.02);
}

TEST(LogisticRegression, ErrorsOnMisuse) {
  LogisticRegression lr;
  EXPECT_THROW(lr.fit(Dataset{}), std::invalid_argument);
  const std::vector<double> row{1.0};
  EXPECT_THROW(lr.predict_probability(row), std::invalid_argument);
}

TEST(LogisticRegression, HardPredictionThresholdsAtHalf) {
  Rng rng(5);
  const Dataset data = linearly_separable(200, rng);
  LogisticRegression lr;
  lr.fit(data);
  for (std::size_t r = 0; r < 10; ++r) {
    const std::vector<double> row{data.x(r, 0), data.x(r, 1), data.x(r, 2)};
    const double p = lr.predict_probability(row);
    EXPECT_DOUBLE_EQ(lr.predict(row), p >= 0.5 ? 1.0 : 0.0);
  }
}

}  // namespace
}  // namespace xpuf::ml
