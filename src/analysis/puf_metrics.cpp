#include "analysis/puf_metrics.hpp"

#include <vector>

#include "common/error.hpp"

namespace xpuf::analysis {

namespace {
bool xor_bit(const sim::XorPufChip& chip, std::size_t n_pufs, const sim::Challenge& c,
             const sim::Environment& env, Rng& rng) {
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= chip.puf_count(), "n_pufs out of range");
  // Subset XOR through the analysis taps (metrics are lab characterization,
  // not protocol traffic).
  bool out = false;
  for (std::size_t p = 0; p < n_pufs; ++p)
    out ^= chip.device_for_analysis(p).evaluate(c, env, rng);
  return out;
}
}  // namespace

double uniformity(const sim::XorPufChip& chip, std::size_t n_pufs,
                  std::size_t n_challenges, const sim::Environment& env, Rng& rng) {
  XPUF_REQUIRE(n_challenges > 0, "uniformity needs challenges");
  std::size_t ones = 0;
  for (std::size_t i = 0; i < n_challenges; ++i)
    if (xor_bit(chip, n_pufs, sim::random_challenge(chip.stages(), rng), env, rng))
      ++ones;
  return static_cast<double>(ones) / static_cast<double>(n_challenges);
}

double uniqueness(const sim::ChipPopulation& population, std::size_t n_pufs,
                  std::size_t n_challenges, const sim::Environment& env, Rng& rng) {
  XPUF_REQUIRE(population.size() >= 2, "uniqueness needs at least two chips");
  XPUF_REQUIRE(n_challenges > 0, "uniqueness needs challenges");
  const std::size_t stages = population.chip(0).stages();
  // Shared challenge set; one response vector per chip.
  std::vector<sim::Challenge> challenges;
  challenges.reserve(n_challenges);
  for (std::size_t i = 0; i < n_challenges; ++i)
    challenges.push_back(sim::random_challenge(stages, rng));

  std::vector<std::vector<bool>> responses(population.size());
  for (std::size_t k = 0; k < population.size(); ++k) {
    responses[k].reserve(n_challenges);
    for (const auto& c : challenges)
      responses[k].push_back(xor_bit(population.chip(k), n_pufs, c, env, rng));
  }

  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t a = 0; a < population.size(); ++a) {
    for (std::size_t b = a + 1; b < population.size(); ++b) {
      std::size_t hd = 0;
      for (std::size_t i = 0; i < n_challenges; ++i)
        if (responses[a][i] != responses[b][i]) ++hd;
      sum += static_cast<double>(hd) / static_cast<double>(n_challenges);
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

double reliability_error(const sim::XorPufChip& chip, std::size_t n_pufs,
                         std::size_t n_challenges, std::size_t n_rereads,
                         const sim::Environment& env, Rng& rng) {
  XPUF_REQUIRE(n_challenges > 0 && n_rereads > 0, "reliability needs work to do");
  std::size_t flips = 0;
  for (std::size_t i = 0; i < n_challenges; ++i) {
    const auto c = sim::random_challenge(chip.stages(), rng);
    const bool reference = xor_bit(chip, n_pufs, c, sim::Environment::nominal(), rng);
    for (std::size_t r = 0; r < n_rereads; ++r)
      if (xor_bit(chip, n_pufs, c, env, rng) != reference) ++flips;
  }
  return static_cast<double>(flips) /
         static_cast<double>(n_challenges * n_rereads);
}

}  // namespace xpuf::analysis
