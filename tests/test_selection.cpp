// Tests for model-based and measurement-based stable-challenge selection.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "puf/selection.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest() : pop_(make_config()), rng_(99) {
    EnrollmentConfig cfg;
    cfg.training_challenges = 2'000;
    cfg.trials = 5'000;
    model_ = Enroller(cfg).enroll(pop_.chip(0), rng_);
    model_.set_betas(BetaFactors{0.9, 1.1});
  }

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 1;
    cfg.n_pufs_per_chip = 3;
    cfg.seed = 777;
    return cfg;
  }

  sim::ChipPopulation pop_;
  Rng rng_;
  ServerModel model_;
};

TEST_F(SelectionTest, ModelBasedSelectFillsQuota) {
  ModelBasedSelector selector(model_, 3);
  const SelectionResult res = selector.select(50, rng_);
  EXPECT_TRUE(res.filled);
  ASSERT_EQ(res.challenges.size(), 50u);
  ASSERT_EQ(res.expected_responses.size(), 50u);
  EXPECT_GE(res.candidates_tried, 50u);
  EXPECT_GT(res.yield(), 0.0);
  EXPECT_LE(res.yield(), 1.0);
}

TEST_F(SelectionTest, SelectedChallengesPassTheStablePredicate) {
  ModelBasedSelector selector(model_, 3);
  const SelectionResult res = selector.select(40, rng_);
  for (std::size_t i = 0; i < res.challenges.size(); ++i) {
    EXPECT_TRUE(model_.all_stable(res.challenges[i], 3));
    EXPECT_EQ(res.expected_responses[i], model_.predict_xor(res.challenges[i], 3));
  }
}

TEST_F(SelectionTest, AttemptBudgetIsRespected) {
  ModelBasedSelector selector(model_, 3);
  const SelectionResult res = selector.select(1'000'000, rng_, 500);
  EXPECT_FALSE(res.filled);
  EXPECT_EQ(res.candidates_tried, 500u);
  EXPECT_LT(res.challenges.size(), 1'000'000u);
}

// Paper Fig 3: the stable fraction falls as the XOR width grows. Walks from
// one seed draw the same candidates, and each one stable on all three PUFs
// is stable on the first, so under one attempt budget the narrow walk
// accepts a superset.
TEST_F(SelectionTest, NarrowerXorWidthYieldsMore) {
  ModelBasedSelector wide(model_, 3);
  ModelBasedSelector narrow(model_, 1);
  Rng wide_rng(2024);
  Rng narrow_rng(2024);
  const SelectionResult w = wide.select(2'000, wide_rng, 2'000);
  const SelectionResult n = narrow.select(2'000, narrow_rng, 2'000);
  EXPECT_EQ(w.candidates_tried, 2'000u);
  EXPECT_EQ(n.candidates_tried, 2'000u);
  EXPECT_GT(n.yield(), w.yield());
}

TEST_F(SelectionTest, SelectorValidatesWidth) {
  EXPECT_THROW(ModelBasedSelector(model_, 0), std::invalid_argument);
  EXPECT_THROW(ModelBasedSelector(model_, 4), std::invalid_argument);
}

TEST_F(SelectionTest, MeasurementBasedSelectorFindsTrulyStableCrps) {
  MeasurementBasedSelector selector(pop_.chip(0), sim::Environment::nominal(), 2'000, 3);
  const SelectionResult res = selector.select(20, rng_);
  EXPECT_TRUE(res.filled);
  ASSERT_EQ(res.challenges.size(), 20u);
  // Re-measure: each selected challenge should be stable again with high
  // probability (not guaranteed — sanity bound only).
  std::size_t stable = 0;
  for (const auto& c : res.challenges) {
    bool all = true;
    for (std::size_t p = 0; p < 3; ++p)
      if (!pop_.chip(0)
               .measure_soft_response(p, c, sim::Environment::nominal(), 2'000, rng_)
               .fully_stable())
        all = false;
    if (all) ++stable;
  }
  EXPECT_GE(stable, 17u);
}

TEST_F(SelectionTest, MeasurementBasedSelectorValidates) {
  EXPECT_THROW(
      MeasurementBasedSelector(pop_.chip(0), sim::Environment::nominal(), 0, 2),
      std::invalid_argument);
  EXPECT_THROW(
      MeasurementBasedSelector(pop_.chip(0), sim::Environment::nominal(), 100, 9),
      std::invalid_argument);
}

TEST_F(SelectionTest, MeasurementBasedSelectorNeedsTapAccess) {
  sim::PopulationConfig cfg = make_config();
  cfg.seed = 778;
  sim::ChipPopulation pop(cfg);
  pop.chip(0).blow_fuses();
  MeasurementBasedSelector selector(pop.chip(0), sim::Environment::nominal(), 100, 2);
  EXPECT_THROW(selector.select(1, rng_), xpuf::AccessError);
}

TEST_F(SelectionTest, ExpectedResponsesOfMeasurementSelectorMatchModel) {
  // With both selectors on the same chip, measured-stable CRPs should get
  // the same expected XOR response from the model (near-perfect model).
  MeasurementBasedSelector msel(pop_.chip(0), sim::Environment::nominal(), 2'000, 3);
  const SelectionResult res = msel.select(30, rng_);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < res.challenges.size(); ++i)
    if (model_.predict_xor(res.challenges[i], 3) == res.expected_responses[i]) ++agree;
  EXPECT_GE(agree, 28u);
}

}  // namespace
}  // namespace xpuf::puf
