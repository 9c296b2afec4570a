// Tests for the batch chip tester (the simulated PXI bench).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "sim/tester.hpp"

namespace xpuf::sim {
namespace {

XorPufChip make_chip(std::size_t n_pufs, std::uint64_t seed) {
  DeviceParameters params;
  Rng rng(seed);
  return XorPufChip(0, n_pufs, params, EnvironmentModel{}, rng);
}

TEST(ChipTester, ValidatesTrials) {
  EXPECT_THROW(ChipTester(Environment::nominal(), 0, Rng(1)), std::invalid_argument);
}

TEST(ChipTester, RandomChallengesMatchChipGeometry) {
  const auto chip = make_chip(2, 1);
  ChipTester tester(Environment::nominal(), 100, Rng(2));
  const auto challenges = tester.random_challenges(chip, 17);
  ASSERT_EQ(challenges.size(), 17u);
  for (const auto& c : challenges) EXPECT_EQ(c.size(), chip.stages());
}

TEST(ChipTester, ScanIndividualShapesAndConsistency) {
  const auto chip = make_chip(3, 3);
  ChipTester tester(Environment::nominal(), 1'000, Rng(4));
  const auto challenges = tester.random_challenges(chip, 25);
  const ChipSoftScan scan = tester.scan_individual(chip, challenges);
  ASSERT_EQ(scan.soft.size(), 3u);
  ASSERT_EQ(scan.stable.size(), 3u);
  ASSERT_EQ(scan.challenges.size(), 25u);
  EXPECT_EQ(scan.trials, 1'000u);
  EXPECT_TRUE(scan.environment == Environment::nominal());
  for (std::size_t p = 0; p < 3; ++p) {
    ASSERT_EQ(scan.soft[p].size(), 25u);
    for (std::size_t c = 0; c < 25; ++c) {
      EXPECT_GE(scan.soft[p][c], 0.0);
      EXPECT_LE(scan.soft[p][c], 1.0);
      // Stability flag consistent with soft value.
      if (scan.stable[p][c]) {
        EXPECT_TRUE(scan.soft[p][c] == 0.0 || scan.soft[p][c] == 1.0);
      }
    }
  }
}

TEST(ChipTester, IsDeterministicPerSeed) {
  const auto chip = make_chip(2, 11);
  ChipTester t1(Environment::nominal(), 1'000, Rng(12));
  ChipTester t2(Environment::nominal(), 1'000, Rng(12));
  const auto c1 = t1.random_challenges(chip, 20);
  const auto c2 = t2.random_challenges(chip, 20);
  ASSERT_EQ(c1.size(), c2.size());
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c2[i]);
  const auto s1 = t1.scan_individual(chip, c1);
  const auto s2 = t2.scan_individual(chip, c2);
  EXPECT_EQ(s1.soft, s2.soft);
}

TEST(ChipTester, ScanFailsOnDeployedChip) {
  auto chip = make_chip(2, 14);
  chip.blow_fuses();
  ChipTester tester(Environment::nominal(), 100, Rng(15));
  const auto challenges = tester.random_challenges(chip, 3);
  EXPECT_THROW(tester.scan_individual(chip, challenges), xpuf::AccessError);
  // The XOR output still answers.
  Rng rng(16);
  EXPECT_NO_THROW(chip.xor_response(challenges[0], Environment::nominal(), rng));
}

// --- LazyCdfCounter vs streams.stream(key).binomial(trials, normal_cdf(z)) ---

/// True when two generators are in the same state: the same next deviates
/// (normal() first, so a cached second deviate counts) and raw words.
bool same_state(Rng a, Rng b) {
  for (int i = 0; i < 2; ++i)
    if (a.normal() != b.normal()) return false;
  for (int i = 0; i < 4; ++i)
    if (a.next_u64() != b.next_u64()) return false;
  return true;
}

/// Inverse of splitmix64's output mix, to plant a chosen generator seed at
/// a chosen StreamFamily key.
std::uint64_t unmix(std::uint64_t z) {
  auto inverse = [](std::uint64_t m) {
    std::uint64_t inv = m;  // Newton: each step doubles the correct low bits
    for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;
    return inv;
  };
  z ^= (z >> 31) ^ (z >> 62);
  z *= inverse(0x94d049bb133111ebULL);
  z ^= (z >> 27) ^ (z >> 54);
  z *= inverse(0xbf58476d1ce4e5b9ULL);
  z ^= (z >> 30) ^ (z >> 60);
  return z;
}

/// The base whose StreamFamily hands out Rng(seed) at `key`.
std::uint64_t base_planting(std::uint64_t seed, std::uint64_t key) {
  return (unmix(seed) - 0x9e3779b97f4a7c15ULL) ^ (0x9e3779b97f4a7c15ULL * (key + 1));
}

// The first uniform of Rng(kHighProbeSeed) exceeds LazyCdfCounter::kZeroExit
// (odds 2^-40 per seed), found by an exhaustive search over seeds. Planted
// at a key, it drives the lower-cut probe onto its normal_cdf fallback.
constexpr std::uint64_t kHighProbeSeed = 1126550646037739ULL;

TEST(LazyCdfCounter, MatchesBinomialOfNormalCdfInCountAndStreamState) {
  const double inf = std::numeric_limits<double>::infinity();
  const StreamFamily family(0x5eed5eed5eedULL);
  for (const std::uint64_t trials : {1ULL, 200ULL, 10000ULL, 65535ULL}) {
    const LazyCdfCounter counter(trials);
    const double cut = counter.lower_cut();
    // The exact-0 region, both sides of the zero, lower and upper cut-offs,
    // the inversion regime (n p < 30), the normal-approximation bulk
    // (n p >= 30) and the p > 0.5 mirror, and a sweep across all of them.
    std::vector<double> zs{-inf, -45.0, -40.0, kNormalCdfZeroTo,
                           std::nextafter(kNormalCdfZeroTo, 0.0), -38.0, -30.0, -20.0,
                           cut - 1.0, std::nextafter(cut, -inf), cut,
                           std::nextafter(cut, inf), cut + 0.01, cut + 1.0,
                           -5.0, -3.0, -2.0, -1.0, -0.1, 0.0, 0.1, 1.0, 2.0, 3.0, 5.0,
                           std::nextafter(kNormalCdfOneFrom, 0.0), kNormalCdfOneFrom,
                           std::nextafter(kNormalCdfOneFrom, inf), 10.0, 40.0, inf};
    for (double z = -12.0; z <= 9.0; z += 0.05) zs.push_back(z);
    for (const double z : zs) {
      const double p = normal_cdf(z);
      // Keys 0..63 of one family, plus the high-probe seed planted at key 3
      // of a second family.
      for (std::uint64_t key = 0; key < 65; ++key) {
        const StreamFamily streams =
            key < 64 ? family : StreamFamily(base_planting(kHighProbeSeed, 3));
        const std::uint64_t k = key < 64 ? key : 3;
        Rng oracle = streams.stream(k);
        const std::uint64_t want = oracle.binomial(trials, p);
        std::optional<Rng> cell;
        const std::uint64_t got = counter.count(
            z, [&]() -> Rng& { return cell.emplace(streams.stream(k)); });
        SCOPED_TRACE(::testing::Message() << "trials " << trials << ", z " << z
                                          << ", key " << key);
        ASSERT_EQ(got, want);
        ASSERT_TRUE(same_state(cell ? *cell : streams.stream(k), oracle));
        // No stream at all where the count is fixed.
        if (z >= kNormalCdfOneFrom || z <= kNormalCdfZeroTo) {
          ASSERT_FALSE(cell.has_value());
        }
      }
    }
  }
}

TEST(LazyCdfCounter, PlantedSeedTakesTheProbeFallback) {
  // Guards the oracle test above: the planted stream's probe uniform really
  // exceeds the zero-count exit bound.
  const StreamFamily streams(base_planting(kHighProbeSeed, 3));
  EXPECT_TRUE(same_state(streams.stream(3), Rng(kHighProbeSeed)));
  EXPECT_GT(streams.stream(3).uniform(), LazyCdfCounter::kZeroExit);
}

TEST(LazyCdfCounter, RejectsZeroTrials) {
  EXPECT_THROW(LazyCdfCounter(0), std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::sim
