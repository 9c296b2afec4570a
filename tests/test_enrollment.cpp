// Tests for the enrollment pipeline: measurement, regression fit quality,
// threshold derivation, and the ServerModel API.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/error.hpp"
#include "common/math.hpp"
#include "oracle/oracle.hpp"
#include "puf/enrollment.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

class EnrollmentTest : public ::testing::Test {
 protected:
  EnrollmentTest() : pop_(make_config()), rng_(123) {}

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 1;
    cfg.n_pufs_per_chip = 4;
    cfg.seed = 2024;
    return cfg;
  }

  ServerModel enroll(std::size_t challenges = 3000, std::uint64_t trials = 5'000) {
    EnrollmentConfig cfg;
    cfg.training_challenges = challenges;
    cfg.trials = trials;
    Enroller enroller(cfg);
    return enroller.enroll(pop_.chip(0), rng_);
  }

  sim::ChipPopulation pop_;
  Rng rng_;
};

TEST_F(EnrollmentTest, ProducesOneModelPerPuf) {
  const ServerModel model = enroll();
  EXPECT_EQ(model.puf_count(), 4u);
  EXPECT_EQ(model.stages(), 32u);
  EXPECT_EQ(model.chip_id(), 0u);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(model.puf(p).model.empty());
    EXPECT_GE(model.puf(p).fit_time_ms, 0.0);
  }
}

TEST_F(EnrollmentTest, LearnedWeightsTrackGroundTruthDirection) {
  const ServerModel model = enroll();
  const auto env = sim::Environment::nominal();
  for (std::size_t p = 0; p < 4; ++p) {
    const linalg::Vector w_true =
        pop_.chip(0).device_for_analysis(p).reduced_weights(env);
    const linalg::Vector& w_fit = model.puf(p).model.weights();
    // Exclude the constant entry (it absorbs the 0.5 soft-response center).
    const std::size_t k = w_true.size() - 1;
    const double corr = xpuf::pearson_correlation(
        std::span<const double>(w_true.data(), k),
        std::span<const double>(w_fit.data(), k));
    EXPECT_GT(corr, 0.98) << "PUF " << p;
  }
}

TEST_F(EnrollmentTest, HardPredictionsMatchDeviceSigns) {
  const ServerModel model = enroll();
  const auto env = sim::Environment::nominal();
  Rng crng(9);
  std::size_t hits = 0;
  const std::size_t n = 5'000;
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = random_challenge(32, crng);
    const bool truth =
        pop_.chip(0).device_for_analysis(0).delay_difference(c, env) > 0.0;
    if (model.puf(0).model.predict_response(c) == truth) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(n), 0.95);
}

TEST_F(EnrollmentTest, ThresholdsAreOrderedAroundCenter) {
  const ServerModel model = enroll();
  for (std::size_t p = 0; p < 4; ++p) {
    const ThresholdPair& thr = model.puf(p).thresholds;
    EXPECT_LT(thr.thr0, thr.thr1);
    EXPECT_LT(thr.thr0, 0.5);
    EXPECT_GT(thr.thr1, 0.5);
  }
}

TEST_F(EnrollmentTest, PredictedSoftResponsesHaveWideCenteredRange) {
  // Paper Fig 8: model predictions extend beyond [0, 1] but stay centered
  // near 0.5.
  const ServerModel model = enroll();
  Rng crng(10);
  double lo = 1e9, hi = -1e9, sum = 0.0;
  const std::size_t n = 3'000;
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = model.predict_soft(0, random_challenge(32, crng));
    lo = std::min(lo, pred);
    hi = std::max(hi, pred);
    sum += pred;
  }
  EXPECT_LT(lo, 0.0);
  EXPECT_GT(hi, 1.0);
  EXPECT_NEAR(sum / static_cast<double>(n), 0.5, 0.1);
}

TEST_F(EnrollmentTest, ClassifyAndAllStableAreConsistent) {
  ServerModel model = enroll();
  model.set_betas(BetaFactors{0.9, 1.1});
  Rng crng(11);
  for (int i = 0; i < 200; ++i) {
    const auto c = random_challenge(32, crng);
    bool expected = true;
    for (std::size_t p = 0; p < 4; ++p)
      if (model.classify(p, c) == StableClass::kUnstable) expected = false;
    EXPECT_EQ(model.all_stable(c), expected);
  }
}

TEST_F(EnrollmentTest, AllStableSubsetWidthIsMonotone) {
  const ServerModel model = enroll();
  Rng crng(12);
  for (int i = 0; i < 300; ++i) {
    const auto c = random_challenge(32, crng);
    // If stable on the first n PUFs, also stable on the first n-1.
    for (std::size_t n = 2; n <= 4; ++n)
      if (model.all_stable(c, n)) { EXPECT_TRUE(model.all_stable(c, n - 1)); }
  }
}

TEST_F(EnrollmentTest, PredictXorMatchesIndividualParity) {
  const ServerModel model = enroll();
  Rng crng(13);
  for (int i = 0; i < 100; ++i) {
    const auto c = random_challenge(32, crng);
    bool parity = false;
    for (std::size_t p = 0; p < 3; ++p)
      parity ^= model.puf(p).model.predict_response(c);
    EXPECT_EQ(model.predict_xor(c, 3), parity);
  }
}

TEST_F(EnrollmentTest, RangeChecksThrow) {
  const ServerModel model = enroll();
  const Challenge c(32, 0);
  EXPECT_THROW(model.puf(4), std::invalid_argument);
  EXPECT_THROW(model.all_stable(c, 0), std::invalid_argument);
  EXPECT_THROW(model.all_stable(c, 5), std::invalid_argument);
  EXPECT_THROW(model.predict_xor(c, 9), std::invalid_argument);
}

TEST_F(EnrollmentTest, EnrollFromScanMatchesDirectEnrollment) {
  EnrollmentConfig cfg;
  cfg.training_challenges = 500;
  cfg.trials = 2'000;
  Enroller enroller(cfg);
  Rng r1(55);
  sim::ChipTester tester(cfg.environment, cfg.trials, r1.fork());
  const auto challenges = tester.random_challenges(pop_.chip(0), 500);
  const auto scan = tester.scan_individual(pop_.chip(0), challenges);
  const ServerModel m = enroller.enroll_from_scan(7, scan);
  EXPECT_EQ(m.chip_id(), 7u);
  EXPECT_EQ(m.puf_count(), 4u);
  // Refitting from the identical scan is deterministic.
  const ServerModel m2 = enroller.enroll_from_scan(7, scan);
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_EQ(m.puf(p).model.weights().raw(), m2.puf(p).model.weights().raw());
}

TEST_F(EnrollmentTest, EnrollmentFailsOnDeployedChip) {
  sim::PopulationConfig cfg = make_config();
  cfg.seed = 31337;
  sim::ChipPopulation pop(cfg);
  pop.chip(0).blow_fuses();
  EnrollmentConfig ecfg;
  ecfg.training_challenges = 10;
  ecfg.trials = 100;
  Enroller enroller(ecfg);
  Rng rng(1);
  EXPECT_THROW(enroller.enroll(pop.chip(0), rng), xpuf::AccessError);
}

TEST_F(EnrollmentTest, MoreTrainingDataImprovesFit) {
  Rng r1(77), r2(77);
  EnrollmentConfig small_cfg;
  small_cfg.training_challenges = 300;
  small_cfg.trials = 2'000;
  EnrollmentConfig big_cfg = small_cfg;
  big_cfg.training_challenges = 5'000;
  const ServerModel small = Enroller(small_cfg).enroll(pop_.chip(0), r1);
  const ServerModel big = Enroller(big_cfg).enroll(pop_.chip(0), r2);

  const auto env = sim::Environment::nominal();
  const linalg::Vector w_true =
      pop_.chip(0).device_for_analysis(0).reduced_weights(env);
  const std::size_t k = w_true.size() - 1;
  auto body_corr = [&](const ServerModel& m) {
    return xpuf::pearson_correlation(
        std::span<const double>(w_true.data(), k),
        std::span<const double>(m.puf(0).model.weights().data(), k));
  };
  EXPECT_GT(body_corr(big), body_corr(small) - 0.005);
  EXPECT_GT(body_corr(big), 0.99);
}

/// Pass 2 (thresholds and R^2) on the rows its compares find hardest. One
/// or two stages leave two or four distinct challenges, so most rows tie
/// with an earlier row's prediction bit for bit; one or three trials make
/// most soft responses exactly 0.0 or 1.0 (three also leaves 1/3 and 2/3).
/// Four, five and eight PUFs fill whole four-PUF vectors and leave a
/// scalar tail. Every value must equal the materialized fit's bits.
TEST(EnrollmentPassTwo, StableRowsAndTiedPredictionsMatchMaterializedFit) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::size_t stages : {1u, 2u}) {
    for (const std::uint64_t trials : {1u, 3u}) {
      for (const std::size_t n_pufs : {4u, 5u, 8u}) {
        SCOPED_TRACE(::testing::Message()
                     << "stages " << stages << ", trials " << trials << ", pufs " << n_pufs);
        sim::PopulationConfig pcfg;
        pcfg.n_chips = 1;
        pcfg.n_pufs_per_chip = n_pufs;
        pcfg.device.stages = stages;
        pcfg.seed = 99;
        const sim::ChipPopulation pop(pcfg);
        EnrollmentConfig cfg;
        cfg.training_challenges = 300;
        cfg.trials = trials;
        cfg.chunk_challenges = 64;

        // The scan both fits see has exact 0.0 and 1.0 rows.
        Rng scan_rng(2025);
        sim::ChipTester tester(cfg.environment, cfg.trials, scan_rng.fork());
        const sim::ChipSoftScan scan = tester.scan_individual(
            pop.chip(0), tester.random_challenges(pop.chip(0), cfg.training_challenges));
        std::size_t zeros = 0, ones = 0;
        for (const std::vector<double>& soft : scan.soft)
          for (const double y : soft) {
            zeros += y == 0.0 ? 1 : 0;
            ones += y == 1.0 ? 1 : 0;
          }
        EXPECT_GT(zeros, 0u);
        EXPECT_GT(ones, 0u);

        Rng want_rng(2025), got_rng(2025);
        const ServerModel want = oracle::materialized_enroll(cfg, pop.chip(0), want_rng);
        const ServerModel got = Enroller(cfg).enroll(pop.chip(0), got_rng);
        ASSERT_EQ(got.puf_count(), n_pufs);
        // Thresholds set by the scan, not the 0.5 fallback, on some PUF.
        std::size_t fitted = 0;
        for (std::size_t p = 0; p < n_pufs; ++p)
          fitted += want.puf(p).thresholds.thr0 != want.puf(p).thresholds.thr1 ? 1 : 0;
        EXPECT_GT(fitted, 0u);
        for (std::size_t p = 0; p < n_pufs; ++p) {
          EXPECT_EQ(got.puf(p).model.weights().raw(), want.puf(p).model.weights().raw())
              << "PUF " << p;
          EXPECT_EQ(bits(got.puf(p).thresholds.thr0), bits(want.puf(p).thresholds.thr0))
              << "PUF " << p;
          EXPECT_EQ(bits(got.puf(p).thresholds.thr1), bits(want.puf(p).thresholds.thr1))
              << "PUF " << p;
          EXPECT_EQ(bits(got.puf(p).train_r_squared), bits(want.puf(p).train_r_squared))
              << "PUF " << p;
        }
      }
    }
  }
}

TEST(EnrollmentValidation, EmptyScanRejected) {
  Enroller enroller(EnrollmentConfig{});
  EXPECT_THROW(enroller.enroll_from_scan(0, sim::ChipSoftScan{}), std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::puf
