// Tests for the modeling attack (dataset construction, MLP).
// Kept at small scale; the full Fig 4 sweep lives in the bench.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "puf/attack.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

class AttackTest : public ::testing::Test {
 protected:
  AttackTest() : pop_(make_config()), rng_(1234) {}

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 1;
    cfg.n_pufs_per_chip = 4;
    cfg.seed = 31415;
    return cfg;
  }

  AttackDataset build(std::size_t n_pufs, std::size_t challenges) {
    AttackDatasetConfig cfg;
    cfg.n_pufs = n_pufs;
    cfg.challenges = challenges;
    cfg.trials = 2'000;
    return build_stable_attack_dataset(pop_.chip(0), cfg, rng_);
  }

  sim::ChipPopulation pop_;
  Rng rng_;
};

TEST_F(AttackTest, DatasetKeepsOnlyStableCrps) {
  const AttackDataset data = build(2, 3'000);
  EXPECT_EQ(data.n_pufs, 2u);
  EXPECT_EQ(data.challenges_measured, 3'000u);
  // Stable yield near 0.8^2 = 0.64 at this trial count.
  EXPECT_NEAR(data.stable_fraction, 0.66, 0.08);
  // 90/10 split.
  const double total =
      static_cast<double>(data.train.size() + data.test.size());
  EXPECT_NEAR(static_cast<double>(data.train.size()) / total, 0.9, 0.01);
  // Targets are bits.
  for (std::size_t i = 0; i < data.train.size(); ++i)
    EXPECT_TRUE(data.train.y[i] == 0.0 || data.train.y[i] == 1.0);
  // Features are parity vectors (+/-1 with trailing 1).
  for (std::size_t r = 0; r < std::min<std::size_t>(20, data.train.size()); ++r) {
    EXPECT_DOUBLE_EQ(data.train.x(r, 32), 1.0);
    for (std::size_t c = 0; c < 33; ++c)
      EXPECT_TRUE(data.train.x(r, c) == 1.0 || data.train.x(r, c) == -1.0);
  }
}

TEST_F(AttackTest, StableFractionDecaysWithN) {
  const AttackDataset d1 = build(1, 2'000);
  const AttackDataset d4 = build(4, 2'000);
  EXPECT_GT(d1.stable_fraction, d4.stable_fraction);
  // Roughly exponential: p4 ~ p1^4 within loose tolerance.
  EXPECT_NEAR(d4.stable_fraction, std::pow(d1.stable_fraction, 4.0), 0.12);
}

TEST_F(AttackTest, DatasetValidatesConfig) {
  AttackDatasetConfig cfg;
  cfg.n_pufs = 9;  // chip has 4
  EXPECT_THROW(build_stable_attack_dataset(pop_.chip(0), cfg, rng_),
               std::invalid_argument);
  cfg = AttackDatasetConfig{};
  cfg.train_fraction = 1.0;
  EXPECT_THROW(build_stable_attack_dataset(pop_.chip(0), cfg, rng_),
               std::invalid_argument);
}

TEST_F(AttackTest, DatasetRequiresTapAccess) {
  sim::PopulationConfig cfg = make_config();
  cfg.seed = 31416;
  sim::ChipPopulation pop(cfg);
  pop.chip(0).blow_fuses();
  AttackDatasetConfig acfg;
  acfg.n_pufs = 2;
  acfg.challenges = 10;
  EXPECT_THROW(build_stable_attack_dataset(pop.chip(0), acfg, rng_),
               xpuf::AccessError);
}

TEST_F(AttackTest, MlpAttackBreaksSmallXor) {
  const AttackDataset data = build(2, 12'000);
  MlpAttackConfig cfg;
  cfg.mlp.hidden_layers = {16, 8};
  cfg.mlp.activation = ml::Activation::kTanh;
  cfg.lbfgs.max_iterations = 150;
  const AttackResult res = run_mlp_attack(data, cfg);
  EXPECT_GT(res.test_accuracy, 0.9);
  EXPECT_GT(res.train_accuracy, 0.9);
  EXPECT_GT(res.train_time_ms, 0.0);
  EXPECT_GT(res.ms_per_crp(), 0.0);
  EXPECT_EQ(res.train_size, data.train.size());
}

TEST_F(AttackTest, MlpAttackWithTinyDataIsWeak) {
  const AttackDataset data = build(3, 400);
  MlpAttackConfig cfg;
  cfg.mlp.hidden_layers = {16, 8};
  cfg.lbfgs.max_iterations = 80;
  const AttackResult res = run_mlp_attack(data, cfg);
  // ~200 stable CRPs cannot break a 3-XOR; accuracy should be far from 1.
  EXPECT_LT(res.test_accuracy, 0.9);
}

TEST_F(AttackTest, AttacksValidateInput) {
  AttackDataset empty;
  EXPECT_THROW(run_mlp_attack(empty), std::invalid_argument);
}

TEST_F(AttackTest, SingleArbiterIsTriviallyBroken) {
  const AttackDataset data = build(1, 4'000);
  MlpAttackConfig cfg;
  cfg.lbfgs.max_iterations = 100;
  const AttackResult res = run_mlp_attack(data, cfg);
  EXPECT_GT(res.test_accuracy, 0.97);
}

}  // namespace
}  // namespace xpuf::puf
