// Tests for the zero-Hamming-distance authentication protocol.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "puf/authentication.hpp"
#include "puf/threshold_adjust.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

class AuthenticationTest : public ::testing::Test {
 protected:
  AuthenticationTest() : pop_(make_config()), rng_(2718) {
    EnrollmentConfig cfg;
    cfg.training_challenges = 3'000;
    cfg.trials = 5'000;
    model_ = Enroller(cfg).enroll(pop_.chip(0), rng_);
    // Adjust betas against the nominal corner plus two extremes.
    std::vector<EvaluationBlock> blocks;
    const auto challenges = random_challenges(32, 3'000, rng_);
    for (const auto& env :
         {sim::Environment::nominal(), sim::Environment{0.8, 0.0}, sim::Environment{1.0, 60.0}})
      blocks.push_back(
          measure_evaluation_block(pop_.chip(0), challenges, env, 5'000, rng_));
    const BetaSearchResult bs = find_betas(model_, blocks);
    model_.set_betas(bs.betas);
  }

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 2;
    cfg.n_pufs_per_chip = 4;
    cfg.seed = 424242;
    return cfg;
  }

  sim::ChipPopulation pop_;
  Rng rng_;
  ServerModel model_;
};

TEST_F(AuthenticationTest, IssueProducesRequestedBatch) {
  AuthenticationServer server(model_, 4, {.challenge_count = 32});
  const ChallengeBatch batch = server.issue(rng_);
  EXPECT_EQ(batch.size(), 32u);
  EXPECT_EQ(batch.expected.size(), 32u);
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_TRUE(model_.all_stable(batch.challenge(i), 4));
}

TEST_F(AuthenticationTest, GenuineChipPassesAtNominal) {
  AuthenticationServer server(model_, 4, {.challenge_count = 64});
  const AuthenticationOutcome out =
      server.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_);
  EXPECT_TRUE(out.approved);
  EXPECT_EQ(out.mismatches, 0u);
  EXPECT_EQ(out.challenges_used, 64u);
}

// Regression (ISSUE 3): issue() used to discard SelectionResult::
// candidates_tried, so the outcome's documented "selection cost on the
// server" was always 0. It must be at least one draw per issued challenge
// and travel batch -> verify -> outcome unchanged.
TEST_F(AuthenticationTest, SelectionCostIsAccounted) {
  AuthenticationServer server(model_, 4, {.challenge_count = 32});
  const ChallengeBatch batch = server.issue(rng_);
  EXPECT_GE(batch.candidates_tried, 32u);

  std::vector<bool> responses(batch.expected.begin(), batch.expected.end());
  const AuthenticationOutcome out = server.verify(batch, responses);
  EXPECT_EQ(out.candidates_tried, batch.candidates_tried);

  const AuthenticationOutcome full =
      server.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_);
  EXPECT_GE(full.candidates_tried, full.challenges_used);
  EXPECT_GT(full.candidates_tried, 0u);
}

TEST_F(AuthenticationTest, RandomIssuanceCostsOneCandidatePerChallenge) {
  AuthenticationServer server(model_, 4, {.challenge_count = 16});
  const ChallengeBatch batch = server.issue_random(rng_);
  EXPECT_EQ(batch.candidates_tried, 16u);
  const AuthenticationOutcome out = server.authenticate(
      pop_.chip(0), sim::Environment::nominal(), rng_, /*model_selected=*/false);
  EXPECT_EQ(out.candidates_tried, 16u);
}

TEST_F(AuthenticationTest, GenuineChipPassesAcrossCalibratedCorners) {
  AuthenticationServer server(model_, 4, {.challenge_count = 48});
  for (const auto& env :
       {sim::Environment::nominal(), sim::Environment{0.8, 0.0}, sim::Environment{1.0, 60.0}}) {
    const AuthenticationOutcome out = server.authenticate(pop_.chip(0), env, rng_);
    EXPECT_TRUE(out.approved) << env.label() << " mismatches=" << out.mismatches;
  }
}

TEST_F(AuthenticationTest, WrongChipIsDenied) {
  AuthenticationServer server(model_, 4, {.challenge_count = 64});
  const AuthenticationOutcome out =
      server.authenticate(pop_.chip(1), sim::Environment::nominal(), rng_);
  EXPECT_FALSE(out.approved);
  // An unrelated chip agrees on about half the XOR bits.
  EXPECT_GT(out.mismatches, 16u);
}

TEST_F(AuthenticationTest, RandomChallengeBaselineIsLessReliable) {
  // Without stable-challenge selection, one-shot XOR sampling hits unstable
  // CRPs and the zero-HD criterion rejects the genuine chip most of the time.
  AuthenticationServer server(model_, 4, {.challenge_count = 64});
  std::size_t mismatch_total = 0;
  for (int i = 0; i < 5; ++i) {
    const AuthenticationOutcome out = server.authenticate(
        pop_.chip(0), sim::Environment::nominal(), rng_, /*model_selected=*/false);
    mismatch_total += out.mismatches;
  }
  EXPECT_GT(mismatch_total, 0u);
}

TEST_F(AuthenticationTest, VerifyCountsMismatchesExactly) {
  AuthenticationServer server(model_, 4, {.challenge_count = 8});
  ChallengeBatch batch = server.issue(rng_);
  std::vector<bool> responses(batch.expected.begin(), batch.expected.end());
  responses[2] = !responses[2];
  responses[5] = !responses[5];
  const AuthenticationOutcome out = server.verify(batch, responses);
  EXPECT_EQ(out.mismatches, 2u);
  EXPECT_FALSE(out.approved);
  EXPECT_EQ(out.challenges_used, 8u);
}

TEST_F(AuthenticationTest, RelaxedHammingPolicyTolerates) {
  AuthenticationServer server(model_, 4,
                              {.challenge_count = 8, .max_hamming_distance = 2});
  ChallengeBatch batch = server.issue(rng_);
  std::vector<bool> responses(batch.expected.begin(), batch.expected.end());
  responses[0] = !responses[0];
  EXPECT_TRUE(server.verify(batch, responses).approved);
  responses[1] = !responses[1];
  responses[3] = !responses[3];
  EXPECT_FALSE(server.verify(batch, responses).approved);
}

TEST_F(AuthenticationTest, VerifyValidatesResponseCount) {
  AuthenticationServer server(model_, 4, {.challenge_count = 4});
  const ChallengeBatch batch = server.issue(rng_);
  EXPECT_THROW(server.verify(batch, std::vector<bool>(3)), std::invalid_argument);
}

TEST_F(AuthenticationTest, AuthenticationWorksOnDeployedChip) {
  // Blowing the fuses must not affect authentication (only XOR output used).
  sim::PopulationConfig cfg = make_config();
  cfg.seed = 424242;  // same lot -> same chip 0
  sim::ChipPopulation pop(cfg);
  pop.chip(0).blow_fuses();
  AuthenticationServer server(model_, 4, {.challenge_count = 32});
  const AuthenticationOutcome out =
      server.authenticate(pop.chip(0), sim::Environment::nominal(), rng_);
  EXPECT_TRUE(out.approved);
}

TEST_F(AuthenticationTest, ConstructionValidates) {
  EXPECT_THROW(AuthenticationServer(model_, 0), std::invalid_argument);
  EXPECT_THROW(AuthenticationServer(model_, 5), std::invalid_argument);
  EXPECT_THROW(AuthenticationServer(model_, 4, {.challenge_count = 0}),
               std::invalid_argument);
}

TEST_F(AuthenticationTest, ChipWidthMismatchIsRejected) {
  // A server enrolled for 4 PUFs cannot authenticate against a different
  // physical XOR width.
  AuthenticationServer server(model_, 3, {.challenge_count = 8});
  EXPECT_THROW(server.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_),
               std::invalid_argument);
}

TEST_F(AuthenticationTest, SelectionExhaustionThrows) {
  AuthenticationServer server(
      model_, 4, {.challenge_count = 1'000, .max_selection_attempts = 50});
  EXPECT_THROW(server.issue(rng_), xpuf::NumericalError);
}

}  // namespace
}  // namespace xpuf::puf
