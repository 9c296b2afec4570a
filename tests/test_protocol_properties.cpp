// Protocol-level property tests: invariants of the authentication flow that
// must hold for every issued batch, policy, and beta setting.
#include <gtest/gtest.h>

#include "puf/authentication.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

class ProtocolPropertyTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNPufs = 4;

  ProtocolPropertyTest() : pop_(make_config()), rng_(13131) {
    EnrollmentConfig cfg;
    cfg.training_challenges = 2'500;
    cfg.trials = 4'000;
    model_ = Enroller(cfg).enroll(pop_.chip(0), rng_);
    model_.set_betas(BetaFactors{0.85, 1.15});
  }

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 2;
    cfg.n_pufs_per_chip = kNPufs;
    cfg.seed = 246810;
    return cfg;
  }

  sim::ChipPopulation pop_;
  Rng rng_;
  ServerModel model_;
};

TEST_F(ProtocolPropertyTest, EveryIssuedChallengeSatisfiesTheStablePredicate) {
  AuthenticationServer server(model_, kNPufs, {.challenge_count = 40});
  for (int round = 0; round < 5; ++round) {
    const ChallengeBatch batch = server.issue(rng_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(model_.all_stable(batch.challenge(i), kNPufs));
      EXPECT_EQ(batch.expected[i], model_.predict_xor(batch.challenge(i), kNPufs));
    }
  }
}

TEST_F(ProtocolPropertyTest, ZeroHdApprovalFlipsOnAnySingleBitError) {
  AuthenticationServer server(model_, kNPufs, {.challenge_count = 12});
  const ChallengeBatch batch = server.issue(rng_);
  std::vector<bool> responses(batch.expected.begin(), batch.expected.end());
  EXPECT_TRUE(server.verify(batch, responses).approved);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    responses[i] = !responses[i];
    const AuthenticationOutcome out = server.verify(batch, responses);
    EXPECT_FALSE(out.approved) << "bit " << i;
    EXPECT_EQ(out.mismatches, 1u);
    responses[i] = !responses[i];
  }
}

TEST_F(ProtocolPropertyTest, CounterfeitMismatchesConcentrateNearHalf) {
  AuthenticationServer server(model_, kNPufs, {.challenge_count = 128});
  double total = 0.0;
  const int rounds = 6;
  for (int r = 0; r < rounds; ++r) {
    const auto out =
        server.authenticate(pop_.chip(1), sim::Environment::nominal(), rng_);
    total += static_cast<double>(out.mismatches) / static_cast<double>(out.challenges_used);
    EXPECT_FALSE(out.approved);
  }
  EXPECT_NEAR(total / rounds, 0.5, 0.12);
}

TEST_F(ProtocolPropertyTest, TighterBetasNeverEnlargeTheStableSet) {
  Rng crng(99);
  const auto challenges = random_challenges(32, 1'500, crng);
  ServerModel loose = model_;
  loose.set_betas(BetaFactors{0.95, 1.05});
  ServerModel tight = model_;
  tight.set_betas(BetaFactors{0.70, 1.30});
  for (const auto& c : challenges) {
    if (tight.all_stable(c, kNPufs)) { EXPECT_TRUE(loose.all_stable(c, kNPufs)); }
  }
}

TEST_F(ProtocolPropertyTest, IssueIsSeedDeterministic) {
  AuthenticationServer server(model_, kNPufs, {.challenge_count = 10});
  Rng r1(4242), r2(4242);
  const ChallengeBatch a = server.issue(r1);
  const ChallengeBatch b = server.issue(r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.challenge(i), b.challenge(i));
    EXPECT_EQ(a.expected[i], b.expected[i]);
  }
}

TEST_F(ProtocolPropertyTest, StableSelectionYieldMatchesPredictedFraction) {
  // The selector's empirical yield over many draws must match the model's
  // all-stable probability on an independent sample.
  ModelBasedSelector selector(model_, kNPufs);
  Rng r1(777);
  const SelectionResult sel = selector.select(300, r1);
  Rng r2(778);
  std::size_t stable = 0;
  const std::size_t n = 20'000;
  for (std::size_t i = 0; i < n; ++i)
    if (model_.all_stable(random_challenge(32, r2), kNPufs)) ++stable;
  const double reference = static_cast<double>(stable) / static_cast<double>(n);
  EXPECT_NEAR(sel.yield(), reference, 0.05);
}

TEST_F(ProtocolPropertyTest, RelaxedPolicyIsMonotoneInThreshold) {
  // If a batch passes at max HD h, it passes at every h' > h.
  AuthenticationServer strict(model_, kNPufs,
                              {.challenge_count = 16, .max_hamming_distance = 1});
  const ChallengeBatch batch = strict.issue(rng_);
  std::vector<bool> responses(batch.expected.begin(), batch.expected.end());
  responses[3] = !responses[3];
  EXPECT_TRUE(strict.verify(batch, responses).approved);
  AuthenticationServer relaxed(model_, kNPufs,
                               {.challenge_count = 16, .max_hamming_distance = 5});
  EXPECT_TRUE(relaxed.verify(batch, responses).approved);
}

}  // namespace
}  // namespace xpuf::puf
