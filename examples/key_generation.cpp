// Key-generation walkthrough: derive a 256-bit key from a 10-XOR PUF with
// the code-offset fuzzy extractor, using the paper's stable-challenge
// selection to keep the error-correction budget trivial.
#include <cstdio>

#include "puf/key_generation.hpp"
#include "puf/selection.hpp"
#include "puf/threshold_adjust.hpp"
#include "sim/population.hpp"

int main() {
  using namespace xpuf;
  const std::size_t n_pufs = 10;

  sim::PopulationConfig config;
  config.n_chips = 2;
  config.n_pufs_per_chip = n_pufs;
  config.seed = 33;
  sim::ChipPopulation lot(config);
  sim::XorPufChip& chip = lot.chip(0);
  Rng rng = lot.measurement_rng();

  // Enroll and tighten thresholds over the V/T grid (as in the paper).
  puf::EnrollmentConfig ecfg;
  ecfg.training_challenges = 5'000;
  ecfg.trials = 10'000;
  puf::ServerModel model = puf::Enroller(ecfg).enroll(chip, rng);
  const auto eval = puf::random_challenges(chip.stages(), 2'000, rng);
  std::vector<puf::EvaluationBlock> blocks;
  for (const auto& env : sim::paper_corner_grid())
    blocks.push_back(puf::measure_evaluation_block(chip, eval, env, 10'000, rng));
  model.set_betas(puf::find_betas(model, blocks).betas);

  // Select the 127 key challenges from the predicted-stable set and
  // generate the key with a modest BCH(127, 113, t=2).
  puf::ModelBasedSelector selector(model, n_pufs);
  const puf::SelectionResult sel = selector.select(127, rng);
  std::printf("selected %zu stable key challenges (yield %.3f%%)\n",
              sel.challenges.size(), 100.0 * sel.yield());

  const puf::FuzzyExtractor fx(puf::KeyGenConfig{.bch_m = 7, .bch_t = 2});
  const puf::KeyGenResult gen =
      fx.generate(chip, sel.challenges, sim::Environment::nominal(), rng);
  std::printf("derived key:  %s\n", crypto::to_hex(gen.key).c_str());
  std::printf("helper data:  %zu public bits (+ the challenge list)\n\n",
              gen.helper.offset.size());

  std::printf("reproduction across the V/T grid (one fresh read each):\n");
  for (const auto& env : sim::paper_corner_grid()) {
    const puf::KeyRepResult rep = fx.reproduce(chip, gen.helper, env, rng);
    std::printf("  %-10s %s (errors corrected: %zu)\n", env.label().c_str(),
                rep.ok && rep.key == gen.key ? "KEY OK " : "FAILED",
                rep.errors_corrected);
  }

  std::printf("\na cloned helper on different silicon:\n");
  const puf::KeyRepResult stolen =
      fx.reproduce(lot.chip(1), gen.helper, sim::Environment::nominal(), rng);
  std::printf("  chip 1 reproduction: %s\n",
              stolen.ok && stolen.key == gen.key ? "KEY LEAKED (BUG!)"
                                                 : "failed — key stays bound to chip 0");
  return 0;
}
