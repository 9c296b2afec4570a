// Tests for the stage-level arbiter PUF device — most importantly the
// equivalence between the recursive stage walk and the reduced linear
// additive model, which is the foundation of every model in the paper.
#include <gtest/gtest.h>

#include <cmath>

#include "common/math.hpp"
#include "puf/transform.hpp"
#include "sim/device.hpp"

namespace xpuf::sim {
namespace {

ArbiterPufDevice make_device(std::size_t stages, std::uint64_t seed) {
  DeviceParameters params;
  params.stages = stages;
  Rng rng(seed);
  return ArbiterPufDevice(params, EnvironmentModel{}, rng);
}

TEST(Device, ValidatesParameters) {
  Rng rng(1);
  DeviceParameters bad;
  bad.stages = 0;
  EXPECT_THROW(ArbiterPufDevice(bad, EnvironmentModel{}, rng), std::invalid_argument);
  bad = DeviceParameters{};
  bad.sigma_noise = 0.0;
  EXPECT_THROW(ArbiterPufDevice(bad, EnvironmentModel{}, rng), std::invalid_argument);
  bad = DeviceParameters{};
  bad.sigma_process = -1.0;
  EXPECT_THROW(ArbiterPufDevice(bad, EnvironmentModel{}, rng), std::invalid_argument);
}

TEST(Device, FabricationIsSeedDeterministic) {
  const auto d1 = make_device(16, 9);
  const auto d2 = make_device(16, 9);
  Rng crng(3);
  for (int i = 0; i < 50; ++i) {
    const auto c = random_challenge(16, crng);
    EXPECT_DOUBLE_EQ(d1.delay_difference(c, Environment::nominal()),
                     d2.delay_difference(c, Environment::nominal()));
  }
}

TEST(Device, DifferentSeedsGiveDifferentDevices) {
  const auto d1 = make_device(16, 10);
  const auto d2 = make_device(16, 11);
  Rng crng(4);
  const auto c = random_challenge(16, crng);
  EXPECT_NE(d1.delay_difference(c, Environment::nominal()),
            d2.delay_difference(c, Environment::nominal()));
}

TEST(Device, ChallengeLengthIsValidated) {
  const auto d = make_device(8, 12);
  const Challenge wrong(7, 0);
  EXPECT_THROW(d.delay_difference(wrong, Environment::nominal()),
               std::invalid_argument);
}

// The central equivalence: recursive race == w . phi at every corner.
struct DeviceCase {
  std::size_t stages;
  std::uint64_t seed;
};

class DeviceReductionSweep : public ::testing::TestWithParam<DeviceCase> {};

TEST_P(DeviceReductionSweep, RecursiveWalkEqualsReducedLinearModel) {
  const auto [stages, seed] = GetParam();
  const auto device = make_device(stages, seed);
  Rng crng(100 + seed);
  for (const auto& env : paper_corner_grid()) {
    const linalg::Vector w = device.reduced_weights(env);
    ASSERT_EQ(w.size(), stages + 1);
    for (int i = 0; i < 25; ++i) {
      const auto c = random_challenge(stages, crng);
      const linalg::Vector phi = puf::feature_vector(c);
      const double direct = device.delay_difference(c, env);
      const double reduced = linalg::dot(w, phi);
      EXPECT_NEAR(direct, reduced, 1e-10 * static_cast<double>(stages))
          << "stages=" << stages << " env=" << env.label();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DeviceReductionSweep,
                         ::testing::Values(DeviceCase{1, 1}, DeviceCase{2, 2},
                                           DeviceCase{8, 3}, DeviceCase{32, 4},
                                           DeviceCase{64, 5}, DeviceCase{128, 6}));

TEST(Device, OneProbabilityMatchesCdfOfDelay) {
  const auto d = make_device(32, 13);
  Rng crng(5);
  const Environment env = Environment::nominal();
  for (int i = 0; i < 20; ++i) {
    const auto c = random_challenge(32, crng);
    const double expected =
        xpuf::normal_cdf(d.delay_difference(c, env) / d.noise_sigma(env));
    EXPECT_DOUBLE_EQ(d.one_probability(c, env), expected);
    EXPECT_GE(d.one_probability(c, env), 0.0);
    EXPECT_LE(d.one_probability(c, env), 1.0);
  }
}

TEST(Device, EvaluateMatchesOneProbabilityStatistically) {
  const auto d = make_device(32, 14);
  Rng crng(6);
  const Environment env = Environment::nominal();
  // Find a moderately-biased challenge so the test is informative.
  Challenge c;
  double p = 0.0;
  for (int i = 0; i < 2000; ++i) {
    c = random_challenge(32, crng);
    p = d.one_probability(c, env);
    if (p > 0.2 && p < 0.8) break;
  }
  ASSERT_GT(p, 0.2);
  ASSERT_LT(p, 0.8);
  Rng eval_rng(7);
  int ones = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i)
    if (d.evaluate(c, env, eval_rng)) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / n, p, 0.02);
}

TEST(Device, NoiseSigmaScalesWithEnvironment) {
  const auto d = make_device(32, 15);
  const double nominal = d.noise_sigma(Environment::nominal());
  EXPECT_DOUBLE_EQ(nominal, DeviceParameters{}.sigma_noise);  // make_device keeps the default
  EXPECT_GT(d.noise_sigma({0.8, 0.0}), nominal);
}

TEST(Device, EnvironmentShiftsDelayDifferences) {
  const auto d = make_device(32, 16);
  Rng crng(8);
  const auto c = random_challenge(32, crng);
  const double nominal = d.delay_difference(c, Environment::nominal());
  const double corner = d.delay_difference(c, {0.8, 60.0});
  EXPECT_NE(nominal, corner);
}

TEST(Device, DelayDistributionMatchesTheory) {
  // Across random challenges, delta ~ N(0, sigma) with
  // sigma^2 = stages * sigma_process^2 (sum of w_i^2 in expectation).
  const std::size_t stages = 64;
  const auto d = make_device(stages, 17);
  Rng crng(9);
  std::vector<double> deltas(20'000);
  for (auto& v : deltas)
    v = d.delay_difference(random_challenge(stages, crng), Environment::nominal());
  const double sd = xpuf::stddev(deltas);
  EXPECT_NEAR(sd, std::sqrt(static_cast<double>(stages)), 1.2);
  EXPECT_NEAR(xpuf::mean(deltas), 0.0, 0.3);
}

TEST(Device, ResponseBiasIsNearHalf) {
  // A single device carries a per-device offset (the constant weight entry,
  // sigma ~ 0.7 against a sqrt(32) spread), so its bias is only *near* 0.5;
  // average several devices to bound the lot-level bias tightly.
  Rng crng(10);
  double bias_sum = 0.0;
  const int devices = 8;
  for (int dev = 0; dev < devices; ++dev) {
    const auto d = make_device(32, 18 + static_cast<std::uint64_t>(dev));
    int ones = 0;
    const int n = 5'000;
    for (int i = 0; i < n; ++i)
      if (d.delay_difference(random_challenge(32, crng), Environment::nominal()) > 0.0)
        ++ones;
    const double bias = static_cast<double>(ones) / n;
    EXPECT_NEAR(bias, 0.5, 0.12) << "device " << dev;
    bias_sum += bias;
  }
  EXPECT_NEAR(bias_sum / devices, 0.5, 0.04);
}

TEST(RandomChallenge, HasRequestedLengthAndBinaryEntries) {
  Rng rng(11);
  const auto c = random_challenge(40, rng);
  ASSERT_EQ(c.size(), 40u);
  for (auto b : c) EXPECT_LE(b, 1);
}

}  // namespace
}  // namespace xpuf::sim
