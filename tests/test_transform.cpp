// Tests for the parity-feature challenge transform.
#include <gtest/gtest.h>

#include "puf/transform.hpp"
#include "sim/device.hpp"

namespace xpuf::puf {
namespace {

TEST(Transform, AllZeroChallengeGivesAllOnes) {
  const Challenge c(5, 0);
  const linalg::Vector phi = feature_vector(c);
  ASSERT_EQ(phi.size(), 6u);
  for (double v : phi) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Transform, KnownSmallCases) {
  // c = [1]: phi = [(1-2*1), 1] = [-1, 1].
  EXPECT_EQ(feature_vector({1}), (linalg::Vector{-1.0, 1.0}));
  // c = [1, 0]: phi_1 = (1-2)(1-0) = -1, phi_2 = 1, phi_3 = 1.
  EXPECT_EQ(feature_vector({1, 0}), (linalg::Vector{-1.0, 1.0, 1.0}));
  // c = [0, 1]: phi_1 = (1)(-1) = -1, phi_2 = -1, phi_3 = 1.
  EXPECT_EQ(feature_vector({0, 1}), (linalg::Vector{-1.0, -1.0, 1.0}));
}

TEST(Transform, EntriesAreAlwaysPlusMinusOneEndingInOne) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto c = random_challenge(24, rng);
    const linalg::Vector phi = feature_vector(c);
    ASSERT_EQ(phi.size(), 25u);
    EXPECT_DOUBLE_EQ(phi[24], 1.0);
    for (double v : phi) EXPECT_TRUE(v == 1.0 || v == -1.0);
  }
}

TEST(Transform, SuffixProductStructureHolds) {
  Rng rng(2);
  const auto c = random_challenge(16, rng);
  const linalg::Vector phi = feature_vector(c);
  for (std::size_t i = 0; i < 16; ++i) {
    const double expected = (c[i] ? -1.0 : 1.0) * phi[i + 1];
    EXPECT_DOUBLE_EQ(phi[i], expected);
  }
}

TEST(Transform, RejectsEmptyChallenge) {
  EXPECT_THROW(feature_vector(Challenge{}), std::invalid_argument);
}

TEST(Transform, RoundTripThroughFeatures) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto c = random_challenge(32, rng);
    EXPECT_EQ(challenge_from_features(feature_vector(c)), c);
  }
}

TEST(Transform, ChallengeFromFeaturesValidates) {
  EXPECT_THROW(challenge_from_features(linalg::Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(challenge_from_features(linalg::Vector{1.0, -1.0}),
               std::invalid_argument);  // must end in +1
  EXPECT_THROW(challenge_from_features(linalg::Vector{0.5, 1.0}),
               std::invalid_argument);  // entries must be +/-1
}

TEST(Transform, FeatureMatrixStacksRows) {
  Rng rng(4);
  const auto challenges = random_challenges(8, 5, rng);
  const linalg::Matrix m = feature_matrix(challenges);
  ASSERT_EQ(m.rows(), 5u);
  ASSERT_EQ(m.cols(), 9u);
  for (std::size_t r = 0; r < 5; ++r) {
    const linalg::Vector phi = feature_vector(challenges[r]);
    for (std::size_t c = 0; c < 9; ++c) EXPECT_DOUBLE_EQ(m(r, c), phi[c]);
  }
}

TEST(Transform, FeatureMatrixValidates) {
  EXPECT_THROW(feature_matrix({}), std::invalid_argument);
  std::vector<Challenge> mixed{Challenge(4, 0), Challenge(5, 0)};
  EXPECT_THROW(feature_matrix(mixed), std::invalid_argument);
}

TEST(Transform, FlippingOneBitFlipsAPrefix) {
  // Flipping challenge bit i negates phi_1..phi_i and leaves the rest.
  Rng rng(5);
  const auto c = random_challenge(12, rng);
  const linalg::Vector phi = feature_vector(c);
  Challenge c2 = c;
  const std::size_t flip = 7;
  c2[flip] ^= 1;
  const linalg::Vector phi2 = feature_vector(c2);
  for (std::size_t i = 0; i <= flip; ++i) EXPECT_DOUBLE_EQ(phi2[i], -phi[i]);
  for (std::size_t i = flip + 1; i < phi.size(); ++i) EXPECT_DOUBLE_EQ(phi2[i], phi[i]);
}

TEST(Transform, RandomChallengesProducesRequestedCount) {
  Rng rng(6);
  const auto cs = random_challenges(10, 7, rng);
  EXPECT_EQ(cs.size(), 7u);
  for (const auto& c : cs) EXPECT_EQ(c.size(), 10u);
}

TEST(Transform, MatchesDeviceReduction) {
  // End-to-end: w . phi from the transform equals the device's stage walk.
  sim::DeviceParameters params;
  params.stages = 20;
  Rng rng(7);
  const sim::ArbiterPufDevice device(params, sim::EnvironmentModel{}, rng);
  const auto env = sim::Environment::nominal();
  const linalg::Vector w = device.reduced_weights(env);
  for (int i = 0; i < 30; ++i) {
    const auto c = random_challenge(20, rng);
    EXPECT_NEAR(linalg::dot(w, feature_vector(c)), device.delay_difference(c, env),
                1e-10);
  }
}

}  // namespace
}  // namespace xpuf::puf
