// Tests for the beta threshold-adjustment search (paper Sec 5).
#include <gtest/gtest.h>

#include "puf/threshold_adjust.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

class ThresholdAdjustTest : public ::testing::Test {
 protected:
  ThresholdAdjustTest() : pop_(make_config()), rng_(321) {
    EnrollmentConfig cfg;
    cfg.training_challenges = 2'000;
    cfg.trials = 5'000;
    model_ = Enroller(cfg).enroll(pop_.chip(0), rng_);
  }

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 1;
    cfg.n_pufs_per_chip = 3;
    cfg.seed = 555;
    return cfg;
  }

  EvaluationBlock measure(const sim::Environment& env, std::size_t n = 4'000) {
    const auto challenges = random_challenges(32, n, rng_);
    return measure_evaluation_block(pop_.chip(0), challenges, env, 5'000, rng_);
  }

  sim::ChipPopulation pop_;
  Rng rng_;
  ServerModel model_;
};

TEST_F(ThresholdAdjustTest, NominalSearchConvergesWithModestBetas) {
  const auto block = measure(sim::Environment::nominal());
  const BetaSearchResult res = find_betas(model_, {block});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.violations_after, 0u);
  EXPECT_LE(res.betas.beta0, 1.0);
  EXPECT_GE(res.betas.beta1, 1.0);
  EXPECT_GT(res.betas.beta0, 0.4);
  EXPECT_LT(res.betas.beta1, 2.0);
}

TEST_F(ThresholdAdjustTest, CornersNeedMoreStringentBetasThanNominal) {
  const auto nominal_block = measure(sim::Environment::nominal());
  const BetaSearchResult nominal = find_betas(model_, {nominal_block});

  std::vector<EvaluationBlock> corner_blocks{nominal_block};
  corner_blocks.push_back(measure({0.8, 0.0}));
  corner_blocks.push_back(measure({1.0, 60.0}));
  const BetaSearchResult corners = find_betas(model_, corner_blocks);

  EXPECT_LE(corners.betas.beta0, nominal.betas.beta0);
  EXPECT_GE(corners.betas.beta1, nominal.betas.beta1);
  EXPECT_TRUE(corners.converged);
}

TEST_F(ThresholdAdjustTest, ViolationsBeforeAreCountedAtUnitBetas) {
  // With the raw thresholds some test-set CRPs are usually misclassified
  // (that is the paper's motivation for beta); make sure the counter sees
  // the same thing the search fixes.
  std::vector<EvaluationBlock> blocks{measure({0.8, 60.0})};
  const BetaSearchResult res = find_betas(model_, blocks);
  if (res.betas.beta0 < 1.0 || res.betas.beta1 > 1.0) {
    EXPECT_GT(res.violations_before, 0u);
  }
  EXPECT_EQ(res.violations_after, 0u);
}

TEST_F(ThresholdAdjustTest, SelectedStableCrpsAreTrulyStableAfterAdjustment) {
  std::vector<EvaluationBlock> blocks;
  for (const auto& env : sim::paper_corner_grid()) blocks.push_back(measure(env, 1'000));
  const BetaSearchResult res = find_betas(model_, blocks);
  ASSERT_TRUE(res.converged);
  ServerModel adjusted = model_;
  adjusted.set_betas(res.betas);
  // Every CRP the adjusted model classifies stable must be measured stable
  // (and correct-valued) in every block.
  for (const auto& block : blocks) {
    for (std::size_t p = 0; p < adjusted.puf_count(); ++p) {
      const ThresholdPair thr = adjusted.adjusted_thresholds(p);
      for (std::size_t c = 0; c < block.challenges.size(); ++c) {
        const double pred = adjusted.predict_soft(p, block.challenges[c]);
        const double soft = block.soft[p][c];
        if (pred < thr.thr0) { EXPECT_DOUBLE_EQ(soft, 0.0); }
        if (pred > thr.thr1) { EXPECT_DOUBLE_EQ(soft, 1.0); }
      }
    }
  }
}

TEST_F(ThresholdAdjustTest, StrictCheckCountsWrongValuedStablePredictions) {
  // A CRP the adjusted model selects as stable '0' that measures a perfectly
  // stable '1' is not unstable, but it would fail the zero-Hamming-distance
  // check: the search must count it and tighten beta0 past it.
  std::vector<EvaluationBlock> blocks{measure({0.8, 0.0}, 2'000)};
  const BetaSearchResult base = find_betas(model_, blocks);
  ASSERT_TRUE(base.converged);
  ServerModel adjusted = model_;
  adjusted.set_betas(base.betas);
  std::size_t flip_p = 0, flip_c = 0;
  double flip_pred = -1e300;
  for (std::size_t p = 0; p < adjusted.puf_count(); ++p) {
    const double thr0 = adjusted.adjusted_thresholds(p).thr0;
    for (std::size_t c = 0; c < blocks[0].challenges.size(); ++c) {
      const double pred = adjusted.predict_soft(p, blocks[0].challenges[c]);
      if (pred < thr0 && pred > flip_pred) {
        flip_pred = pred;
        flip_p = p;
        flip_c = c;
      }
    }
  }
  ASSERT_GT(flip_pred, -1e300) << "no stable-'0' selection to corrupt";
  ASSERT_EQ(blocks[0].soft[flip_p][flip_c], 0.0);
  blocks[0].soft[flip_p][flip_c] = 1.0;

  const BetaSearchResult wrong = find_betas(model_, blocks);
  EXPECT_EQ(wrong.violations_before, base.violations_before + 1);
  EXPECT_LT(wrong.betas.beta0, base.betas.beta0);
  EXPECT_EQ(wrong.betas.beta1, base.betas.beta1);
  EXPECT_TRUE(wrong.converged);
}

TEST_F(ThresholdAdjustTest, SearchValidatesInput) {
  EXPECT_THROW(find_betas(model_, {}), std::invalid_argument);
}

TEST_F(ThresholdAdjustTest, MismatchedBlockShapesThrow) {
  EvaluationBlock bad;
  bad.challenges = random_challenges(32, 5, rng_);
  bad.soft.assign(2, std::vector<double>(5, 0.0));  // chip has 3 PUFs
  EXPECT_THROW(find_betas(model_, {bad}), std::invalid_argument);

  EvaluationBlock ragged;
  ragged.challenges = random_challenges(32, 5, rng_);
  ragged.soft.assign(3, std::vector<double>(4, 0.0));  // wrong row length
  EXPECT_THROW(find_betas(model_, {ragged}), std::invalid_argument);
}

TEST(ConservativeBetas, TakesExtremes) {
  const std::vector<BetaFactors> per_chip{{0.90, 1.05}, {0.74, 1.02}, {0.85, 1.08}};
  const BetaFactors b = conservative_betas(per_chip);
  EXPECT_DOUBLE_EQ(b.beta0, 0.74);
  EXPECT_DOUBLE_EQ(b.beta1, 1.08);
  EXPECT_THROW(conservative_betas({}), std::invalid_argument);
}

TEST(MeasureEvaluationBlock, ShapesAndEnvironmentRecorded) {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = 2;
  sim::ChipPopulation pop(cfg);
  Rng rng(1);
  const auto challenges = random_challenges(32, 7, rng);
  const sim::Environment env{1.0, 0.0};
  const EvaluationBlock block =
      measure_evaluation_block(pop.chip(0), challenges, env, 500, rng);
  EXPECT_EQ(block.challenges.size(), 7u);
  ASSERT_EQ(block.soft.size(), 2u);
  EXPECT_EQ(block.soft[0].size(), 7u);
  EXPECT_TRUE(block.environment == env);
}

}  // namespace
}  // namespace xpuf::puf
