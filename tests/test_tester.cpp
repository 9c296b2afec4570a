// Tests for the batch chip tester (the simulated PXI bench).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/parallel.hpp"
#include "oracle/oracle.hpp"
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

TEST(ChipTester, ScanIndividualMatchesScalarOracleAtOnboardTrials) {
  // The count onboarding uses (10,000 evaluations per challenge), at every
  // paper corner and at one and two lanes: every cell regime, the exit
  // table's both sides among them, against the per-cell stage walk.
  const auto chip = make_chip(4, 21);
  for (const Environment& env : paper_corner_grid()) {
    oracle::ScalarTester scalar(env, 10'000, Rng(22));
    const auto challenges = scalar.random_challenges(chip, 300);
    const ChipSoftScan want = scalar.scan_individual(chip, challenges);
    for (const std::size_t threads : {1u, 2u}) {
      ThreadPool::set_global_threads(threads);
      ChipTester tester(env, 10'000, Rng(22));
      ASSERT_EQ(tester.random_challenges(chip, 300), challenges);
      const ChipSoftScan got = tester.scan_individual(chip, challenges);
      EXPECT_EQ(got.soft, want.soft) << "v=" << env.voltage << " t=" << env.temperature
                                     << " threads=" << threads;
      EXPECT_EQ(got.stable, want.stable);
    }
  }
  ThreadPool::set_global_threads(8);
}

// --- LazyCdfCounter vs streams.stream(key).binomial(trials, normal_cdf(z)) ---

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
// at a key, it drives a cell below the lower cut past the table's first
// slot onto binomial.
constexpr std::uint64_t kHighProbeSeed = 1126550646037739ULL;

/// The per-cell oracle: each cell's own stream, binomial of normal_cdf.
std::vector<std::uint64_t> eager_row(std::uint64_t trials, const std::vector<double>& z,
                                     std::size_t stride, std::size_t m,
                                     const StreamFamily& streams, std::uint64_t first_key) {
  std::vector<std::uint64_t> out(m);
  for (std::size_t c = 0; c < m; ++c)
    out[c] = streams.stream(first_key + c).binomial(trials, normal_cdf(z[c * stride]));
  return out;
}

std::vector<std::uint64_t> lazy_row(const LazyCdfCounter& counter, const std::vector<double>& z,
                                    std::size_t stride, std::size_t m,
                                    const StreamFamily& streams, std::uint64_t first_key) {
  std::vector<std::uint64_t> out(m, 0xdeadULL);
  counter.count_row(z.data(), stride, m, streams, first_key, out.data());
  return out;
}

/// The standardized delays a counter test sweeps: the exact-0 region, both
/// sides of the zero, lower and upper cut-offs, the inversion regime
/// (n p < 30), the normal-approximation bulk (n p >= 30), the p > 0.5
/// mirror, and a sweep across all of them.
std::vector<double> counter_sweep(double cut) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> zs{-inf, -45.0, -40.0, kNormalCdfZeroTo,
                         std::nextafter(kNormalCdfZeroTo, 0.0), -38.0, -30.0, -20.0,
                         cut - 1.0, std::nextafter(cut, -inf), cut,
                         std::nextafter(cut, inf), cut + 0.01, cut + 1.0,
                         -5.0, -3.0, -2.0, -1.0, -0.1, -0.0, 0.0, 1e-300, 0.1, 1.0, 2.0, 3.0,
                         5.0, std::nextafter(kNormalCdfOneFrom, 0.0), kNormalCdfOneFrom,
                         std::nextafter(kNormalCdfOneFrom, inf), 10.0, 40.0, inf};
  for (double z = -12.0; z <= 9.0; z += 0.05) zs.push_back(z);
  return zs;
}

TEST(LazyCdfCounter, RowCountsMatchBinomialOfNormalCdf) {
  const StreamFamily family(0x5eed5eed5eedULL);
  const StreamFamily planted(base_planting(kHighProbeSeed, 3));
  for (const std::uint64_t trials : {1ULL, 200ULL, 10000ULL, 65535ULL}) {
    const LazyCdfCounter counter(trials);
    for (const double z : counter_sweep(LazyCdfCounter::lower_cut(trials))) {
      SCOPED_TRACE(::testing::Message() << "trials " << trials << ", z " << z);
      // One z across keys 0..63, one full 64-cell block of the row pass.
      const std::vector<double> row(64, z);
      ASSERT_EQ(lazy_row(counter, row, 1, 64, family, 0),
                eager_row(trials, row, 1, 64, family, 0));
      // The high-probe seed at key 3: within a row, and alone.
      ASSERT_EQ(lazy_row(counter, row, 1, 5, planted, 0),
                eager_row(trials, row, 1, 5, planted, 0));
      ASSERT_EQ(lazy_row(counter, row, 1, 1, planted, 3),
                eager_row(trials, row, 1, 1, planted, 3));
    }
  }
}

TEST(LazyCdfCounter, RowPassMatchesPerCellAtEveryRowLength) {
  // Rows of 0..9 cells, and rows across the pass's 64-cell blocks, read
  // from a tile column with mixed z, every cell its own key.
  const StreamFamily family(0x7a11eULL);
  Rng rng(5);
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 130};
  for (const std::uint64_t trials : {1ULL, 100ULL, 10000ULL}) {
    const LazyCdfCounter counter(trials);
    const std::vector<double> zs = counter_sweep(LazyCdfCounter::lower_cut(trials));
    for (const std::size_t m : lengths) {
      for (int round = 0; round < 200; ++round) {
        const std::size_t stride = 3;
        std::vector<double> tile(std::max<std::size_t>(m, 1) * stride);
        for (double& z : tile) z = zs[rng.uniform_below(zs.size())];
        const std::uint64_t key = rng.uniform_below(1000);
        SCOPED_TRACE(::testing::Message() << "trials " << trials << ", m " << m);
        ASSERT_EQ(lazy_row(counter, tile, stride, m, family, key),
                  eager_row(trials, tile, stride, m, family, key));
      }
    }
  }
}

TEST(LazyCdfCounter, NanDelayStillThrows) {
  const LazyCdfCounter counter(10000);
  const StreamFamily family(9);
  for (std::size_t m = 1; m <= 9; ++m) {
    for (std::size_t at = 0; at < m; ++at) {
      std::vector<double> row(m, -20.0);
      row[at] = std::numeric_limits<double>::quiet_NaN();
      std::vector<std::uint64_t> out(m);
      EXPECT_THROW(counter.count_row(row.data(), 1, m, family, 0, out.data()),
                   std::invalid_argument)
          << "m " << m << ", NaN at " << at;
    }
  }
  EXPECT_LT(counter.exit_for(std::numeric_limits<double>::quiet_NaN()).bound, 0.0);
}

/// Rng::binomial(trials, normal_cdf(z))'s count where its first uniform u
/// alone decides it: the fixed counts at p == 0 and p == 1, and the
/// zero-count exit of the inversion regime (count 0, or `trials` through
/// the p > 0.5 mirror). nullopt where binomial draws on.
std::optional<std::uint64_t> eager_exit(std::uint64_t trials, double z, double u) {
  const double p = normal_cdf(z);
  if (p == 0.0) return 0;
  if (p == 1.0) return trials;
  const bool mirror = p > 0.5;
  const double q = mirror ? 1.0 - p : p;
  const double n = static_cast<double>(trials);
  if (!(n * q < 30.0)) return std::nullopt;
  if (u <= 1.0 - n * q - 0x1p-40) return mirror ? trials : 0;
  return std::nullopt;
}

constexpr std::uint64_t kExitTrials[] = {1,     2,      100,     1000,
                                         10000, 65535,  100000,  (1ULL << 20) + 1};

TEST(LazyCdfCounter, EagerExitMatchesBinomial) {
  // Ties the expression the exit test holds the table to to binomial
  // itself: wherever it decides a stream's count from its first uniform,
  // binomial draws that count.
  const StreamFamily family(0xe8e8ULL);
  for (const std::uint64_t trials : kExitTrials) {
    for (double z = -10.0; z <= 9.0; z += 1.0 / 64) {
      for (std::uint64_t key = 0; key < 16; ++key) {
        const double u = family.stream(key).uniform();
        const std::optional<std::uint64_t> want = eager_exit(trials, z, u);
        if (want) {
          ASSERT_EQ(family.stream(key).binomial(trials, normal_cdf(z)), *want)
              << "trials " << trials << ", z " << z << ", key " << key;
        }
      }
    }
  }
}

TEST(LazyCdfCounter, ExitDecisionImpliesTheEagerExitAtEveryKnot) {
  // At every knot of the table and one ulp either side, the table's bound
  // is a u at which binomial exits with the table's count; one ulp above
  // the bound the table decides nothing.
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::uint64_t trials : kExitTrials) {
    const LazyCdfCounter counter(trials);
    const double k_lo = std::floor(LazyCdfCounter::lower_cut(trials) * 128.0);
    const double k_hi = std::ceil(kNormalCdfOneFrom * 128.0);
    std::size_t decided = 0;
    for (double k = k_lo - 1; k <= k_hi + 1; k += 1.0) {
      const double knot = k / 128.0;
      for (const double z : {std::nextafter(knot, -inf), knot, std::nextafter(knot, inf)}) {
        const LazyCdfCounter::Exit exit = counter.exit_for(z);
        SCOPED_TRACE(::testing::Message() << "trials " << trials << ", z " << z << ", bound "
                                          << exit.bound);
        if (exit.bound < 0.0) continue;
        ++decided;
        ASSERT_EQ(std::ldexp(std::floor(std::ldexp(exit.bound, 53)), -53), exit.bound)
            << "the bound is a value u takes";
        const std::optional<std::uint64_t> eager = eager_exit(trials, z, exit.bound);
        ASSERT_TRUE(eager.has_value()) << "table exits where binomial draws on";
        ASSERT_EQ(*eager, exit.count);
        const double above = std::nextafter(exit.bound, inf);
        ASSERT_FALSE(above <= counter.exit_for(z).bound);
      }
    }
    // The table decides the zero-count exit on a good part of its range.
    EXPECT_GT(decided, k_hi - k_lo) << "trials " << trials;
  }
}

TEST(LazyCdfCounter, ExitTableEnds) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::uint64_t trials : kExitTrials) {
    const LazyCdfCounter counter(trials);
    SCOPED_TRACE(::testing::Message() << "trials " << trials);
    // The lower cut's probe is the first slot.
    for (const double z : {-inf, kNormalCdfZeroTo, LazyCdfCounter::lower_cut(trials) - 0.5}) {
      EXPECT_EQ(counter.exit_for(z).bound, LazyCdfCounter::kZeroExit) << "z " << z;
      EXPECT_EQ(counter.exit_for(z).count, 0u);
    }
    // From the upper cut-off up the count is `trials` for every u the
    // neighbouring mirror slot allows.
    for (const double z : {kNormalCdfOneFrom + 0.5, 40.0, inf}) {
      EXPECT_GE(counter.exit_for(z).bound, LazyCdfCounter::kZeroExit - 0x1p-30) << "z " << z;
      EXPECT_EQ(counter.exit_for(z).count, trials);
    }
  }
  // Both sides of the onboarding count decide their inversion regime.
  const LazyCdfCounter counter(10000);
  EXPECT_GT(counter.exit_for(-4.5).bound, 0.9);
  EXPECT_EQ(counter.exit_for(-4.5).count, 0u);
  EXPECT_GT(counter.exit_for(4.5).bound, 0.9);
  EXPECT_EQ(counter.exit_for(4.5).count, 10000u);
  EXPECT_LT(counter.exit_for(0.0).bound, 0.0);  // the bulk draws on
}

TEST(LazyCdfCounter, PlantedSeedTakesTheProbeFallback) {
  // Guards the row test above: the planted stream's probe uniform really
  // exceeds the zero-count exit bound.
  const StreamFamily streams(base_planting(kHighProbeSeed, 3));
  EXPECT_EQ(streams.stream(3).next_u64(), Rng(kHighProbeSeed).next_u64());
  EXPECT_GT(streams.stream(3).uniform(), LazyCdfCounter::kZeroExit);
}

TEST(LazyCdfCounter, RejectsZeroTrials) {
  EXPECT_THROW(LazyCdfCounter(0), std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::sim
