// Tests for the shared experiment runners (the curves behind the figures).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/experiment.hpp"
#include "puf/enrollment.hpp"
#include "sim/population.hpp"

namespace xpuf::analysis {
namespace {

class ExperimentTest : public ::testing::Test {
 protected:
  ExperimentTest() : pop_(make_config()), rng_(42) {}

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 1;
    cfg.n_pufs_per_chip = 5;
    cfg.seed = 1000;
    return cfg;
  }

  sim::ChipPopulation pop_;
  Rng rng_;
};

TEST_F(ExperimentTest, SoftResponseStudyIsBimodal) {
  const SoftResponseStudy study = study_soft_response(
      pop_.chip(0), 0, 3'000, 10'000, sim::Environment::nominal(), rng_);
  EXPECT_EQ(study.challenges, 3'000u);
  // Paper Fig 2: ~40% in each extreme bin. A single device carries a
  // per-device bias that skews the 0/1 split while the sum stays ~80%.
  EXPECT_NEAR(study.pr_stable0, 0.40, 0.12);
  EXPECT_NEAR(study.pr_stable1, 0.40, 0.12);
  EXPECT_NEAR(study.pr_stable0 + study.pr_stable1, 0.82, 0.08);
  // The first bin covers [0, 0.01): the 100%-stable CRPs plus the nearly
  // stable ones, so it dominates but slightly exceeds Pr(stable 0).
  EXPECT_GE(study.histogram.fraction(0) + 1e-12, study.pr_stable0);
  EXPECT_NEAR(study.histogram.fraction(0), study.pr_stable0, 0.06);
  EXPECT_GE(study.histogram.fraction(study.histogram.bins() - 1) + 1e-12, study.pr_stable1);
  EXPECT_NEAR(study.histogram.fraction(study.histogram.bins() - 1), study.pr_stable1, 0.06);
  // Middle bins are comparatively empty.
  EXPECT_LT(study.histogram.fraction(50), 0.02);
}

TEST_F(ExperimentTest, MeasuredStableVsNDecaysExponentially) {
  const auto fractions = measured_stable_vs_n(pop_.chip(0), 5, 2'000, 10'000,
                                              sim::Environment::nominal(), rng_);
  ASSERT_EQ(fractions.size(), 5u);
  // Monotone decreasing.
  for (std::size_t i = 1; i < 5; ++i) EXPECT_LE(fractions[i], fractions[i - 1]);
  // n = 1 near the calibrated 80%.
  EXPECT_NEAR(fractions[0], 0.80, 0.05);
  // Exponential-decay base near 0.8.
  EXPECT_NEAR(fit_exponential_base(fractions), 0.80, 0.05);
}

TEST_F(ExperimentTest, PredictedStableVsNDecaysAndIsFewerThanMeasured) {
  puf::EnrollmentConfig cfg;
  cfg.training_challenges = 2'000;
  cfg.trials = 5'000;
  puf::ServerModel model = puf::Enroller(cfg).enroll(pop_.chip(0), rng_);
  const auto measured = measured_stable_vs_n(pop_.chip(0), 5, 2'000, 10'000,
                                             sim::Environment::nominal(), rng_);
  const auto predicted = predicted_stable_vs_n(model, 5, 2'000, rng_);
  ASSERT_EQ(predicted.size(), 5u);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_LE(predicted[i], predicted[i - 1]);
  // The paper: predicted-stable fraction < measured-stable fraction.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_LT(predicted[i], measured[i] + 0.02);
  // Tightening betas reduces the predicted yield further.
  model.set_betas(puf::BetaFactors{0.7, 1.3});
  const auto tightened = predicted_stable_vs_n(model, 5, 2'000, rng_);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_LE(tightened[i], predicted[i] + 1e-12);
}

TEST_F(ExperimentTest, RunnersValidateArguments) {
  EXPECT_THROW(measured_stable_vs_n(pop_.chip(0), 0, 10, 100,
                                    sim::Environment::nominal(), rng_),
               std::invalid_argument);
  EXPECT_THROW(measured_stable_vs_n(pop_.chip(0), 6, 10, 100,
                                    sim::Environment::nominal(), rng_),
               std::invalid_argument);
  EXPECT_THROW(
      study_soft_response(pop_.chip(0), 0, 0, 100, sim::Environment::nominal(), rng_),
      std::invalid_argument);
}

TEST(FitExponentialBase, RecoversPlantedBase) {
  std::vector<double> y;
  for (int n = 1; n <= 10; ++n) y.push_back(std::pow(0.8, n));
  EXPECT_NEAR(fit_exponential_base(y), 0.8, 1e-9);
}

TEST(FitExponentialBase, SkipsZeros) {
  std::vector<double> y{0.5, 0.25, 0.0, 0.0625};
  EXPECT_NEAR(fit_exponential_base(y), 0.5, 1e-9);
}

TEST(FitExponentialBase, AllZeroReturnsZero) {
  EXPECT_DOUBLE_EQ(fit_exponential_base({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(fit_exponential_base({}), 0.0);
}

}  // namespace
}  // namespace xpuf::analysis
