// Tests for the multi-layer perceptron: architecture bookkeeping, analytic
// gradients against finite differences, and learning of non-linear targets.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"

namespace xpuf::ml {
namespace {

Dataset xor_problem() {
  // The 2-bit XOR truth table, replicated for stable full-batch training.
  Dataset data;
  data.x = linalg::Matrix(40, 2);
  data.y = linalg::Vector(40);
  const double xs[4][2] = {{-1, -1}, {-1, 1}, {1, -1}, {1, 1}};
  const double ys[4] = {0, 1, 1, 0};
  for (std::size_t r = 0; r < 40; ++r) {
    data.x(r, 0) = xs[r % 4][0];
    data.x(r, 1) = xs[r % 4][1];
    data.y[r] = ys[r % 4];
  }
  return data;
}

TEST(Mlp, ParameterCountMatchesTopology) {
  MlpOptions opts;
  opts.hidden_layers = {35, 25, 25};
  const Mlp mlp(33, opts);
  // 33*35+35 + 35*25+25 + 25*25+25 + 25*1+1 = 2941.
  EXPECT_EQ(mlp.parameters().size(),
            33u * 35 + 35 + 35u * 25 + 25 + 25u * 25 + 25 + 25u + 1);
  EXPECT_EQ(mlp.n_inputs(), 33u);
}

TEST(Mlp, RejectsDegenerateTopology) {
  EXPECT_THROW(Mlp(0), std::invalid_argument);
  MlpOptions opts;
  opts.hidden_layers = {4, 0};
  EXPECT_THROW(Mlp(3, opts), std::invalid_argument);
}

TEST(Mlp, InitializationIsSeededAndBounded) {
  MlpOptions a;
  a.seed = 11;
  MlpOptions b;
  b.seed = 11;
  const Mlp m1(4, a), m2(4, b);
  EXPECT_EQ(m1.parameters().raw(), m2.parameters().raw());
  MlpOptions c;
  c.seed = 12;
  const Mlp m3(4, c);
  EXPECT_NE(m1.parameters().raw(), m3.parameters().raw());
}

class MlpGradientSweep : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpGradientSweep, AnalyticGradientMatchesFiniteDifferences) {
  Rng rng(1);
  MlpOptions opts;
  opts.hidden_layers = {5, 4};
  opts.activation = GetParam();
  opts.l2 = 1e-3;
  opts.seed = 3;
  Mlp mlp(3, opts);

  linalg::Matrix x(7, 3);
  linalg::Vector y(7);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = rng.normal();
    y[r] = rng.bernoulli() ? 1.0 : 0.0;
  }

  const linalg::Vector p = mlp.parameters();
  linalg::Vector grad(p.size());
  mlp.loss_and_gradient(x, y, p, grad);

  linalg::Vector dummy(p.size());
  const double h = 1e-6;
  // ReLU is non-differentiable at 0; a perturbation that crosses a kink
  // makes the central difference meaningless, so tolerate a few outliers
  // for ReLU while requiring near-exact agreement for smooth activations.
  const bool smooth = GetParam() != Activation::kRelu;
  std::size_t checked = 0, mismatched = 0;
  // Spot-check a spread of parameter indices (full sweep is O(P^2)).
  for (std::size_t i = 0; i < p.size(); i += std::max<std::size_t>(1, p.size() / 23)) {
    linalg::Vector pp = p, pm = p;
    pp[i] += h;
    pm[i] -= h;
    const double fp = mlp.loss_and_gradient(x, y, pp, dummy);
    const double fm = mlp.loss_and_gradient(x, y, pm, dummy);
    const double fd = (fp - fm) / (2.0 * h);
    ++checked;
    if (smooth) {
      EXPECT_NEAR(grad[i], fd, 1e-4 * std::max(1.0, std::fabs(fd))) << "param " << i;
    } else if (std::fabs(grad[i] - fd) > 1e-3 * std::max(1.0, std::fabs(fd))) {
      ++mismatched;
    }
  }
  if (!smooth) { EXPECT_LE(mismatched, checked / 8) << "too many ReLU kink crossings"; }
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpGradientSweep,
                         ::testing::Values(Activation::kTanh, Activation::kRelu));

TEST(Mlp, LearnsXorWithLbfgs) {
  MlpOptions opts;
  opts.hidden_layers = {8};
  opts.activation = Activation::kTanh;
  opts.l2 = 0.0;
  opts.seed = 5;
  Mlp mlp(2, opts);
  const Dataset data = xor_problem();
  LbfgsOptions lopts;
  lopts.max_iterations = 300;
  mlp.fit(data, lopts);
  const linalg::Vector pred = mlp.predict(data.x);
  EXPECT_DOUBLE_EQ(accuracy(pred.span(), data.y.span()), 1.0);
}

TEST(Mlp, PredictProbabilityIsConsistentBetweenSingleAndBatch) {
  Rng rng(8);
  Mlp mlp(4);
  linalg::Matrix x(6, 4);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 4; ++c) x(r, c) = rng.normal();
  const linalg::Vector batch = mlp.predict_probability(x);
  for (std::size_t r = 0; r < 6; ++r) {
    const std::vector<double> row{x(r, 0), x(r, 1), x(r, 2), x(r, 3)};
    EXPECT_NEAR(mlp.predict_probability(row), batch[r], 1e-12);
  }
}

TEST(Mlp, ProbabilitiesAreInUnitInterval) {
  Rng rng(9);
  Mlp mlp(3);
  linalg::Matrix x(50, 3);
  for (std::size_t r = 0; r < 50; ++r)
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = rng.normal(0.0, 10.0);
  for (double p : mlp.predict_probability(x)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Mlp, L2PenaltyIncreasesLossForNonzeroWeights) {
  linalg::Matrix x(2, 2, 0.5);
  linalg::Vector y{0.0, 1.0};
  MlpOptions no_reg;
  no_reg.hidden_layers = {3};
  no_reg.l2 = 0.0;
  no_reg.seed = 10;
  MlpOptions reg = no_reg;
  reg.l2 = 1.0;
  const Mlp m1(2, no_reg), m2(2, reg);  // same seed: identical weights
  ASSERT_EQ(m1.parameters().raw(), m2.parameters().raw());
  linalg::Vector g1(m1.parameters().size()), g2(m2.parameters().size());
  const double l1 = m1.loss_and_gradient(x, y, m1.parameters(), g1);
  const double l2v = m2.loss_and_gradient(x, y, m2.parameters(), g2);
  EXPECT_GT(l2v, l1);
}

TEST(Mlp, FitValidatesInput) {
  Mlp mlp(2);
  EXPECT_THROW(mlp.fit(Dataset{}), std::invalid_argument);
  Dataset bad;
  bad.x = linalg::Matrix(2, 3);
  bad.y = linalg::Vector(2);
  EXPECT_THROW(mlp.fit(bad), std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::ml
