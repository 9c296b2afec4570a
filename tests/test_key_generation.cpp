// Tests for the code-offset fuzzy extractor and its interaction with the
// paper's stable-challenge selection.
#include <gtest/gtest.h>

#include "puf/key_generation.hpp"
#include "puf/selection.hpp"
#include "puf/threshold_adjust.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

class KeyGenerationTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNPufs = 4;

  KeyGenerationTest() : pop_(make_config()), rng_(17) {}

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 2;
    cfg.n_pufs_per_chip = kNPufs;
    cfg.seed = 1717;
    return cfg;
  }

  sim::ChipPopulation pop_;
  Rng rng_;
};

TEST_F(KeyGenerationTest, GeometryAndValidation) {
  const FuzzyExtractor fx(KeyGenConfig{.bch_m = 7, .bch_t = 10});
  EXPECT_EQ(fx.code().n(), 127u);
  EXPECT_EQ(fx.code().k(), 64u);
  const auto few = random_challenges(32, 10, rng_);
  EXPECT_THROW(fx.generate(pop_.chip(0), few, sim::Environment::nominal(), rng_),
               std::invalid_argument);
}

TEST_F(KeyGenerationTest, NoiseFreeRoundTripReproducesTheKey) {
  const FuzzyExtractor fx(KeyGenConfig{});
  const auto challenges = random_challenges(32, fx.code().n(), rng_);
  const KeyGenResult gen =
      fx.generate(pop_.chip(0), challenges, sim::Environment::nominal(), rng_);
  // Majority-of-15 reads approximate the enrolled (mostly stable) response
  // closely; with t = 10 the residual disagreement is well within capacity.
  crypto::Bits response(fx.code().n());
  Rng local(99);
  for (std::size_t i = 0; i < response.size(); ++i) {
    int ones = 0;
    for (int k = 0; k < 15; ++k)
      ones += pop_.chip(0).xor_response(gen.helper.challenges[i],
                                        sim::Environment::nominal(), local);
    response[i] = ones > 7 ? 1 : 0;
  }
  const KeyRepResult rep = fx.reproduce_from_bits(response, gen.helper);
  ASSERT_TRUE(rep.ok);
  EXPECT_EQ(rep.key, gen.key);
}

TEST_F(KeyGenerationTest, StableChallengesReproduceAcrossCorners) {
  // The paper's scheme as a key-generation enabler: select 100%-stable
  // challenges, then the response is error-free at every corner and even a
  // weak code suffices.
  EnrollmentConfig ecfg;
  ecfg.training_challenges = 2'500;
  ecfg.trials = 4'000;
  ServerModel model = Enroller(ecfg).enroll(pop_.chip(0), rng_);
  const auto eval = random_challenges(32, 1'500, rng_);
  std::vector<EvaluationBlock> blocks;
  for (const auto& env : sim::paper_corner_grid())
    blocks.push_back(measure_evaluation_block(pop_.chip(0), eval, env, 4'000, rng_));
  model.set_betas(find_betas(model, blocks).betas);

  const FuzzyExtractor fx(KeyGenConfig{.bch_m = 7, .bch_t = 2});  // weak code
  ModelBasedSelector selector(model, kNPufs);
  const SelectionResult sel = selector.select(fx.code().n(), rng_);
  ASSERT_TRUE(sel.filled);

  const KeyGenResult gen =
      fx.generate(pop_.chip(0), sel.challenges, sim::Environment::nominal(), rng_);
  for (const auto& env : sim::paper_corner_grid()) {
    const KeyRepResult rep = fx.reproduce(pop_.chip(0), gen.helper, env, rng_);
    ASSERT_TRUE(rep.ok) << env.label();
    EXPECT_EQ(rep.key, gen.key) << env.label();
    EXPECT_LE(rep.errors_corrected, 2u) << env.label();
  }
}

TEST_F(KeyGenerationTest, RandomChallengesOverwhelmAWeakCode) {
  const FuzzyExtractor fx(KeyGenConfig{.bch_m = 7, .bch_t = 2});
  const auto challenges = random_challenges(32, fx.code().n(), rng_);
  const KeyGenResult gen =
      fx.generate(pop_.chip(0), challenges, sim::Environment::nominal(), rng_);
  // With a ~10% response error rate of the 4-XOR, a t=2/127 code fails most
  // of the time.
  int failures = 0;
  const int trials = 10;
  for (int i = 0; i < trials; ++i) {
    const KeyRepResult rep =
        fx.reproduce(pop_.chip(0), gen.helper, sim::Environment::nominal(), rng_);
    if (!rep.ok || rep.key != gen.key) ++failures;
  }
  EXPECT_GT(failures, trials / 2);
}

TEST_F(KeyGenerationTest, DifferentChipCannotReproduceTheKey) {
  const FuzzyExtractor fx(KeyGenConfig{});
  const auto challenges = random_challenges(32, fx.code().n(), rng_);
  const KeyGenResult gen =
      fx.generate(pop_.chip(0), challenges, sim::Environment::nominal(), rng_);
  int stolen = 0;
  for (int i = 0; i < 5; ++i) {
    const KeyRepResult rep =
        fx.reproduce(pop_.chip(1), gen.helper, sim::Environment::nominal(), rng_);
    if (rep.ok && rep.key == gen.key) ++stolen;
  }
  EXPECT_EQ(stolen, 0);
}

TEST_F(KeyGenerationTest, FreshRandomnessGivesFreshKeys) {
  const FuzzyExtractor fx(KeyGenConfig{});
  const auto challenges = random_challenges(32, fx.code().n(), rng_);
  const KeyGenResult a =
      fx.generate(pop_.chip(0), challenges, sim::Environment::nominal(), rng_);
  const KeyGenResult b =
      fx.generate(pop_.chip(0), challenges, sim::Environment::nominal(), rng_);
  EXPECT_NE(crypto::to_hex(a.key), crypto::to_hex(b.key));  // fresh message
}

TEST_F(KeyGenerationTest, ReproduceValidatesHelperShape) {
  const FuzzyExtractor fx(KeyGenConfig{});
  HelperData bad;
  bad.offset = crypto::Bits(10, 0);
  EXPECT_THROW(fx.reproduce_from_bits(crypto::Bits(fx.code().n(), 0), bad),
               std::invalid_argument);
  EXPECT_THROW(fx.reproduce_from_bits(crypto::Bits(5, 0), bad), std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::puf
