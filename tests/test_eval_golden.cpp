// Golden pin of every batch evaluation entry point that reads the linear
// delay model w . phi(c): the tester's individual scan, the evaluation
// blocks and the beta search over them, the attack corpus and the fit from
// an existing scan. Each output is hashed bit for bit over
// stages {32, 64, 100} x XOR widths {1, 2, 10}, at 1 and 4 threads, against
// constants recorded from the implementation that evaluated through a
// row-major double Phi matrix. The parity-word core that replaced it must
// reproduce every one of them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "puf/attack.hpp"
#include "puf/enrollment.hpp"
#include "puf/threshold_adjust.hpp"
#include "sim/population.hpp"
#include "sim/tester.hpp"

namespace xpuf {
namespace {

void mix(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
}

void mix(std::uint64_t& h, double v) { mix(h, std::bit_cast<std::uint64_t>(v)); }

void mix_challenges(std::uint64_t& h, const std::vector<sim::Challenge>& challenges) {
  mix(h, std::uint64_t{challenges.size()});
  for (const sim::Challenge& c : challenges)
    for (const std::uint8_t bit : c) mix(h, std::uint64_t{bit});
}

void mix_bits(std::uint64_t& h, const std::vector<bool>& bits) {
  mix(h, std::uint64_t{bits.size()});
  for (const bool b : bits) mix(h, std::uint64_t{b ? 1U : 0U});
}

void mix_dataset(std::uint64_t& h, const ml::Dataset& d) {
  mix(h, std::uint64_t{d.x.rows()});
  mix(h, std::uint64_t{d.x.cols()});
  for (std::size_t r = 0; r < d.x.rows(); ++r)
    for (std::size_t c = 0; c < d.x.cols(); ++c) mix(h, d.x(r, c));
  for (const double y : d.y) mix(h, y);
}

struct Hashes {
  std::uint64_t individual = 0;
  std::uint64_t enroll = 0;
  std::uint64_t eval_blocks = 0;
  std::uint64_t betas = 0;
  std::uint64_t attack = 0;

  bool operator==(const Hashes&) const = default;
};

struct GoldenCase {
  std::size_t stages;
  std::size_t n_pufs;
  Hashes want;
};

/// Three corners of the paper's V/T grid: nominal and the two extremes.
std::vector<sim::Environment> corners() {
  return {sim::Environment{0.9, 25.0}, sim::Environment{0.8, -20.0},
          sim::Environment{1.0, 85.0}};
}

Hashes run_case(std::size_t stages, std::size_t n_pufs) {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = n_pufs;
  cfg.device.stages = stages;
  cfg.seed = 0xe7a1ULL + stages * 16 + n_pufs;
  const sim::ChipPopulation pop(cfg);
  const sim::XorPufChip& chip = pop.chip(0);
  Hashes out;

  // The tester's individual scan at each corner, one tester per corner.
  std::uint64_t corner_seed = 11;
  for (const sim::Environment& env : corners()) {
    Rng rng(corner_seed++);
    sim::ChipTester tester(env, 300, rng.fork());
    const std::vector<sim::Challenge> challenges = tester.random_challenges(chip, 150);
    const sim::ChipSoftScan scan = tester.scan_individual(chip, challenges);
    mix_challenges(out.individual, scan.challenges);
    for (std::size_t p = 0; p < n_pufs; ++p) {
      for (const double s : scan.soft[p]) mix(out.individual, s);
      mix_bits(out.individual, scan.stable[p]);
    }
  }

  // A model fitted from an existing scan at the nominal corner.
  puf::EnrollmentConfig ecfg;
  ecfg.trials = 500;
  Rng enroll_rng(23);
  sim::ChipTester enroll_tester(ecfg.environment, ecfg.trials, enroll_rng.fork());
  const sim::ChipSoftScan train =
      enroll_tester.scan_individual(chip, enroll_tester.random_challenges(chip, 320));
  const puf::ServerModel model = puf::Enroller(ecfg).enroll_from_scan(chip.id(), train);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    const puf::PufEnrollment& e = model.puf(p);
    for (const double w : e.model.weights()) mix(out.enroll, w);
    mix(out.enroll, e.thresholds.thr0);
    mix(out.enroll, e.thresholds.thr1);
    mix(out.enroll, e.train_r_squared);
  }

  // Evaluation blocks at every corner, and the beta search over them.
  Rng eval_rng(29);
  const std::vector<sim::Challenge> eval = sim::random_challenges(stages, 250, eval_rng);
  std::vector<puf::EvaluationBlock> blocks;
  for (const sim::Environment& env : corners())
    blocks.push_back(puf::measure_evaluation_block(chip, eval, env, 400, eval_rng));
  for (const puf::EvaluationBlock& b : blocks)
    for (const std::vector<double>& row : b.soft)
      for (const double s : row) mix(out.eval_blocks, s);
  const puf::BetaSearchResult betas = puf::find_betas(model, blocks);
  mix(out.betas, betas.betas.beta0);
  mix(out.betas, betas.betas.beta1);
  mix(out.betas, std::uint64_t{betas.violations_before});
  mix(out.betas, std::uint64_t{betas.violations_after});
  mix(out.betas, std::uint64_t{betas.converged ? 1U : 0U});

  // The attack corpus.
  puf::AttackDatasetConfig acfg;
  acfg.n_pufs = n_pufs;
  acfg.challenges = 400;
  acfg.trials = 300;
  Rng attack_rng(37);
  const puf::AttackDataset data = puf::build_stable_attack_dataset(chip, acfg, attack_rng);
  mix_dataset(out.attack, data.train);
  mix_dataset(out.attack, data.test);
  mix(out.attack, data.stable_fraction);
  return out;
}

// Recorded by running run_case on the Phi-matrix implementation.
const GoldenCase kCases[] = {
    {32, 1, {0x62e767a29ed199b6ULL, 0xa1b08512139fd000ULL, 0x2c9ed776b9a85982ULL,
             0x62f0e30665d49e20ULL, 0x3cc2993f2ca6dfd2ULL}},
    {32, 2, {0xbfe51a75b5e47e32ULL, 0x7cc2980eaa08dd95ULL, 0x46149daf94632390ULL,
             0x9c2505a268141a23ULL, 0x1a663eb97cb20cdbULL}},
    {32, 10, {0x880d6e2e563f2ca1ULL, 0x5f0f856d746db074ULL, 0xfac66fad6eaffe1fULL,
              0x52a9e4952305c73bULL, 0xc1c35df67983940fULL}},
    {64, 1, {0x4dfd44ecc6ca66acULL, 0x3500fdb30fc1859fULL, 0x5a18b4856e82049eULL,
             0x085475bf9b1eb937ULL, 0x45d12feabc79e306ULL}},
    {64, 2, {0x019c88ed971d564bULL, 0x42f9273d60c23ba8ULL, 0x7d607569e5b058edULL,
             0xe47c6b763d98491eULL, 0x265f7fc76cd088daULL}},
    {64, 10, {0x6dfe676b1028576bULL, 0x91f18a5fcd230de9ULL, 0xd05ce71cd48e60efULL,
              0xfb32a116d539f009ULL, 0x9bf7639306c821abULL}},
    {100, 1, {0x4e3daab068f6bebaULL, 0xa1ad54178b54c96fULL, 0x3a3c5d86b91de695ULL,
              0xc0ba8651106e4864ULL, 0xbdc03cb40a8e7970ULL}},
    {100, 2, {0x8fea39d9bbc5dadfULL, 0x07f4c9863cb8cd65ULL, 0x9076c66ad93508d8ULL,
              0x6c372f306c639b49ULL, 0x3435f6dcbf0b901dULL}},
    {100, 10, {0xe01792b5e27b26edULL, 0x1b5a3719fa5e1481ULL, 0x708b7cc9ba3210e9ULL,
               0x44dd839ac0192881ULL, 0xd3924792f2fde996ULL}},
};

void print_hashes(const char* label, const Hashes& h) {
  std::printf("%s {0x%016llxULL, 0x%016llxULL, 0x%016llxULL,\n"
              "   0x%016llxULL, 0x%016llxULL}\n",
              label, static_cast<unsigned long long>(h.individual),
              static_cast<unsigned long long>(h.enroll),
              static_cast<unsigned long long>(h.eval_blocks),
              static_cast<unsigned long long>(h.betas),
              static_cast<unsigned long long>(h.attack));
}

TEST(EvalGolden, EveryBatchEntryPointMatchesThePhiMatrixImplementation) {
  const std::uint64_t saved = ThreadPool::global_threads();
  for (const GoldenCase& gc : kCases) {
    for (const std::uint64_t threads : {1U, 4U}) {
      ThreadPool::set_global_threads(threads);
      const Hashes got = run_case(gc.stages, gc.n_pufs);
      EXPECT_EQ(got.individual, gc.want.individual);
      EXPECT_EQ(got.enroll, gc.want.enroll);
      EXPECT_EQ(got.eval_blocks, gc.want.eval_blocks);
      EXPECT_EQ(got.betas, gc.want.betas);
      EXPECT_EQ(got.attack, gc.want.attack);
      if (got != gc.want) {
        std::printf("stages %zu, n %zu, %llu threads:\n", gc.stages, gc.n_pufs,
                    static_cast<unsigned long long>(threads));
        print_hashes("  got", got);
      }
    }
  }
  ThreadPool::set_global_threads(saved);
}

}  // namespace
}  // namespace xpuf
