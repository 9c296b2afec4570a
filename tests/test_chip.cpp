// Tests for the XOR PUF chip: access control, counters, XOR semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "sim/chip.hpp"
#include "sim/linear.hpp"

namespace xpuf::sim {
namespace {

XorPufChip make_chip(std::size_t n_pufs, std::uint64_t seed) {
  DeviceParameters params;
  Rng rng(seed);
  return XorPufChip(0, n_pufs, params, EnvironmentModel{}, rng);
}

TEST(SoftMeasurement, SoftResponseAndStability) {
  const SoftMeasurement all_zero{0, 100};
  EXPECT_DOUBLE_EQ(all_zero.soft_response(), 0.0);
  EXPECT_TRUE(all_zero.fully_stable());

  const SoftMeasurement all_one{100, 100};
  EXPECT_DOUBLE_EQ(all_one.soft_response(), 1.0);
  EXPECT_TRUE(all_one.fully_stable());

  const SoftMeasurement mixed{50, 100};
  EXPECT_DOUBLE_EQ(mixed.soft_response(), 0.5);
  EXPECT_FALSE(mixed.fully_stable());

  const SoftMeasurement empty{0, 0};
  EXPECT_FALSE(empty.fully_stable());
}

TEST(Chip, ConstructionValidatesAndExposesGeometry) {
  const auto chip = make_chip(4, 1);
  EXPECT_EQ(chip.puf_count(), 4u);
  EXPECT_EQ(chip.stages(), 32u);
  EXPECT_EQ(chip.id(), 0u);
  Rng rng(1);
  DeviceParameters p;
  EXPECT_THROW(XorPufChip(0, 0, p, EnvironmentModel{}, rng), std::invalid_argument);
}

TEST(Chip, XorResponseMatchesIndividualResponsesWhenNoiseless) {
  // With stable challenges the XOR of individual hard responses must equal
  // the XOR output; verify via one_probability signs on the devices.
  const auto chip = make_chip(3, 2);
  Rng rng(2);
  const Environment env = Environment::nominal();
  int checked = 0;
  for (int i = 0; i < 500 && checked < 50; ++i) {
    const auto c = random_challenge(chip.stages(), rng);
    bool strongly_biased = true;
    bool expected = false;
    for (std::size_t p = 0; p < 3; ++p) {
      const double prob = chip.device_for_analysis(p).one_probability(c, env);
      if (prob > 1e-9 && prob < 1.0 - 1e-9) {
        strongly_biased = false;
        break;
      }
      expected ^= prob > 0.5;
    }
    if (!strongly_biased) continue;
    ++checked;
    EXPECT_EQ(chip.xor_response(c, env, rng), expected);
  }
  EXPECT_GT(checked, 10);
}

TEST(Chip, IndividualAccessRequiresIntactFuse) {
  auto chip = make_chip(2, 3);
  Rng rng(3);
  const auto c = random_challenge(chip.stages(), rng);
  const Environment env = Environment::nominal();
  EXPECT_TRUE(chip.tap_accessible(0));
  EXPECT_NO_THROW(chip.individual_response(0, c, env, rng));
  EXPECT_NO_THROW(chip.measure_soft_response(1, c, env, 100, rng));

  chip.blow_fuses();
  EXPECT_TRUE(chip.deployed());
  EXPECT_FALSE(chip.tap_accessible(0));
  EXPECT_THROW(chip.individual_response(0, c, env, rng), xpuf::AccessError);
  EXPECT_THROW(chip.measure_soft_response(1, c, env, 100, rng), xpuf::AccessError);
  // XOR output remains available after deployment.
  EXPECT_NO_THROW(chip.xor_response(c, env, rng));
  EXPECT_NO_THROW(chip.measure_xor_soft_response(c, env, 100, rng));
}

TEST(Chip, PufIndexIsValidated) {
  auto chip = make_chip(2, 4);
  Rng rng(4);
  const auto c = random_challenge(chip.stages(), rng);
  EXPECT_THROW(chip.individual_response(2, c, Environment::nominal(), rng),
               std::invalid_argument);
  EXPECT_THROW(chip.tap_accessible(5), std::invalid_argument);
  EXPECT_THROW(chip.device_for_analysis(9), std::invalid_argument);
}

TEST(Chip, SoftMeasurementTrialsAreValidated) {
  auto chip = make_chip(1, 5);
  Rng rng(5);
  const auto c = random_challenge(chip.stages(), rng);
  EXPECT_THROW(chip.measure_soft_response(0, c, Environment::nominal(), 0, rng),
               std::invalid_argument);
  EXPECT_THROW(chip.measure_xor_soft_response(c, Environment::nominal(), 0, rng),
               std::invalid_argument);
}

TEST(Chip, SoftResponseApproximatesOneProbability) {
  const auto chip = make_chip(1, 6);
  Rng rng(6);
  const Environment env = Environment::nominal();
  // Pick a challenge with a mid-range probability for statistical power.
  Challenge c;
  double p = 0.0;
  for (int i = 0; i < 5000; ++i) {
    c = random_challenge(chip.stages(), rng);
    p = chip.device_for_analysis(0).one_probability(c, env);
    if (p > 0.3 && p < 0.7) break;
  }
  ASSERT_GT(p, 0.3);
  const auto m = chip.measure_soft_response(0, c, env, 100'000, rng);
  EXPECT_NEAR(m.soft_response(), p, 0.01);
  EXPECT_EQ(m.trials, 100'000u);
}

TEST(Chip, XorSoftResponseMatchesParityFormula) {
  const auto chip = make_chip(3, 7);
  Rng rng(7);
  const Environment env = Environment::nominal();
  const auto c = random_challenge(chip.stages(), rng);
  double prod = 1.0;
  for (std::size_t p = 0; p < 3; ++p)
    prod *= 1.0 - 2.0 * chip.device_for_analysis(p).one_probability(c, env);
  const double p_xor = 0.5 * (1.0 - prod);
  const auto m = chip.measure_xor_soft_response(c, env, 200'000, rng);
  EXPECT_NEAR(m.soft_response(), p_xor, 0.01);
}

TEST(Chip, MoreXorInputsMeanFewerStableChallenges) {
  const auto chip = make_chip(8, 8);
  Rng rng(8);
  const Environment env = Environment::nominal();
  const std::uint64_t trials = 10'000;
  int stable1 = 0, stable8 = 0;
  const int n = 1'000;
  for (int i = 0; i < n; ++i) {
    const auto c = random_challenge(chip.stages(), rng);
    bool all8 = true;
    for (std::size_t p = 0; p < 8; ++p) {
      const auto m = chip.measure_soft_response(p, c, env, trials, rng);
      if (p == 0 && m.fully_stable()) ++stable1;
      if (!m.fully_stable()) {
        all8 = false;
        break;
      }
    }
    if (all8) ++stable8;
  }
  EXPECT_GT(stable1, stable8);
  // Single-PUF stability should be near the calibrated ~80%.
  EXPECT_NEAR(static_cast<double>(stable1) / n, 0.80, 0.06);
}

TEST(Chip, LockstepPackedRaceEqualsPerChallengeResponses) {
  // xor_responses must be a loop over xor_response in disguise: the same
  // bits, and the generator left where the loop leaves it — checked through
  // a next normal (the polar method's cached deviate) and a next raw draw.
  // 41 rows: a 1-PUF chip leaves an odd number of normals drawn.
  for (const std::size_t stages : {32u, 64u, 100u}) {
    for (const std::size_t n_pufs : {1u, 10u}) {
      for (const double sigma_noise : {0.327, 4.0}) {
        DeviceParameters params;
        params.stages = stages;
        params.sigma_noise = sigma_noise;
        Rng fab(7000 + stages + n_pufs);
        XorPufChip chip(0, n_pufs, params, EnvironmentModel{}, fab);
        const std::size_t stride = packed_words(stages);
        // Raw words: the bits above `stages` are garbage the race must ignore.
        Rng draw(stages * 31 + n_pufs);
        std::vector<std::uint64_t> rows(41 * stride);
        for (std::uint64_t& w : rows) w = draw.next_u64();
        for (const double hours : {0.0, 20000.0}) {
          chip.age(hours);
          for (const Environment& env : paper_corner_grid()) {
            SCOPED_TRACE("stages=" + std::to_string(stages) + " n=" + std::to_string(n_pufs) +
                         " sigma=" + std::to_string(sigma_noise) + " aged=" +
                         std::to_string(hours) + " " + env.label());
            Rng lockstep(4242);
            Rng looped(4242);
            std::vector<std::uint8_t> got;
            chip.xor_responses(rows, stages, env, lockstep, got);
            std::vector<std::uint8_t> want;
            Challenge c;
            for (std::size_t at = 0; at < rows.size(); at += stride) {
              unpack_challenge_into({rows.data() + at, stride}, stages, c);
              want.push_back(chip.xor_response(c, env, looped) ? 1 : 0);
            }
            EXPECT_EQ(got, want);
            EXPECT_EQ(lockstep.normal(), looped.normal());
            EXPECT_EQ(lockstep.next_u64(), looped.next_u64());
          }
        }
      }
    }
  }
}

TEST(Chip, LockstepPackedRaceValidatesItsRows) {
  const auto chip = make_chip(3, 11);
  Rng rng(3);
  std::vector<std::uint8_t> out{1, 0, 1};
  chip.xor_responses({}, chip.stages(), Environment::nominal(), rng, out);
  EXPECT_TRUE(out.empty());
  const std::vector<std::uint64_t> rows(2, 0x5555ULL);
  EXPECT_THROW(chip.xor_responses(rows, chip.stages() + 1, Environment::nominal(), rng, out),
               std::invalid_argument);
  // 100 stages take two words a row; three words are not whole rows.
  DeviceParameters params;
  params.stages = 100;
  Rng fab(12);
  const XorPufChip wide_chip(0, 2, params, EnvironmentModel{}, fab);
  const std::vector<std::uint64_t> ragged(3, 0);
  EXPECT_THROW(wide_chip.xor_responses(ragged, 100, Environment::nominal(), rng, out),
               std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::sim
