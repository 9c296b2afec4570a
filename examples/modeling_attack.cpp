// Modeling-attack demo: train the paper's MLP (35/25/25, L-BFGS) on stable
// CRPs of XOR PUFs of increasing width and watch the attack degrade —
// the security half of the paper's story (Fig 4 at example scale).
#include <cstdio>

#include "puf/attack.hpp"
#include "sim/population.hpp"

int main() {
  using namespace xpuf;

  sim::PopulationConfig config;
  config.n_chips = 1;
  config.n_pufs_per_chip = 8;
  config.seed = 99;
  sim::ChipPopulation lot(config);
  Rng rng = lot.measurement_rng();

  std::printf("MLP modeling attack on n-XOR arbiter PUFs "
              "(35/25/25 hidden units, L-BFGS, stable CRPs only)\n\n");
  std::printf("%-4s %-12s %-12s %-14s %-14s\n", "n", "stable CRPs", "train size",
              "test accuracy", "ms per CRP");

  for (std::size_t n : {1u, 2u, 4u, 6u}) {
    puf::AttackDatasetConfig dcfg;
    dcfg.n_pufs = n;
    dcfg.challenges = 10'000;
    dcfg.trials = 5'000;
    const puf::AttackDataset data =
        puf::build_stable_attack_dataset(lot.chip(0), dcfg, rng);

    puf::MlpAttackConfig acfg;  // paper topology by default
    acfg.mlp.activation = ml::Activation::kTanh;
    acfg.lbfgs.max_iterations = 100;
    const puf::AttackResult res = puf::run_mlp_attack(data, acfg);
    std::printf("%-4zu %-12zu %-12zu %-14.3f %-14.3f\n", n,
                data.train.size() + data.test.size(), res.train_size,
                res.test_accuracy, res.ms_per_crp());
  }

  std::printf("\nAt a fixed measurement budget the attack decays with n — the paper "
              "measured the same shape on silicon and concluded n >= 10 is needed "
              "(with ~1M CRPs, accuracy for n < 10 still exceeds 90%%).\n");
  std::printf("The reliability-based CMA-ES attack on the deployed XOR output is in "
              "examples/reliability_attack.\n");
  return 0;
}
