// Tests for the standard PUF quality metrics.
#include <gtest/gtest.h>

#include "analysis/puf_metrics.hpp"

namespace xpuf::analysis {
namespace {

sim::ChipPopulation make_population(std::size_t chips, std::uint64_t seed = 3030) {
  sim::PopulationConfig cfg;
  cfg.n_chips = chips;
  cfg.n_pufs_per_chip = 4;
  cfg.seed = seed;
  return sim::ChipPopulation(cfg);
}

TEST(PufMetrics, UniformityNearHalf) {
  const auto pop = make_population(1);
  Rng rng(1);
  const double u = uniformity(pop.chip(0), 4, 4'000, sim::Environment::nominal(), rng);
  // XOR of 4 PUFs washes out per-device bias almost completely.
  EXPECT_NEAR(u, 0.5, 0.05);
}

TEST(PufMetrics, UniformityValidates) {
  const auto pop = make_population(1);
  Rng rng(2);
  EXPECT_THROW(uniformity(pop.chip(0), 0, 10, sim::Environment::nominal(), rng),
               std::invalid_argument);
  EXPECT_THROW(uniformity(pop.chip(0), 4, 0, sim::Environment::nominal(), rng),
               std::invalid_argument);
}

TEST(PufMetrics, UniquenessNearHalf) {
  const auto pop = make_population(4);
  Rng rng(3);
  const double u = uniqueness(pop, 4, 1'500, sim::Environment::nominal(), rng);
  EXPECT_NEAR(u, 0.5, 0.05);
}

TEST(PufMetrics, UniquenessNeedsTwoChips) {
  const auto pop = make_population(1);
  Rng rng(4);
  EXPECT_THROW(uniqueness(pop, 4, 10, sim::Environment::nominal(), rng),
               std::invalid_argument);
}

TEST(PufMetrics, ReliabilityErrorSmallAtNominal) {
  const auto pop = make_population(1);
  Rng rng(5);
  const double e =
      reliability_error(pop.chip(0), 4, 400, 5, sim::Environment::nominal(), rng);
  // XOR of 4: per-bit error a bit above single-PUF (~2-10%).
  EXPECT_LT(e, 0.15);
}

TEST(PufMetrics, ReliabilityDegradesAtCorners) {
  const auto pop = make_population(1);
  Rng rng(6);
  const double nominal =
      reliability_error(pop.chip(0), 4, 800, 5, sim::Environment::nominal(), rng);
  const double corner =
      reliability_error(pop.chip(0), 4, 800, 5, {0.8, 60.0}, rng);
  EXPECT_GT(corner, nominal);
}

TEST(PufMetrics, ReliabilityGrowsWithXorWidth) {
  const auto pop = make_population(1);
  Rng rng(7);
  const double narrow =
      reliability_error(pop.chip(0), 1, 800, 5, sim::Environment::nominal(), rng);
  const double wide =
      reliability_error(pop.chip(0), 4, 800, 5, sim::Environment::nominal(), rng);
  EXPECT_GT(wide, narrow);  // the paper's security-vs-stability tension
}

}  // namespace
}  // namespace xpuf::analysis
