// Modeling attacks on XOR arbiter PUFs (paper Sec 2.3, Fig 4).
//
// The paper's security evaluation trains a multi-layer perceptron (3 hidden
// layers of 35/25/25 units, L-BFGS) on transformed challenge vectors with
// 1-bit XOR responses as targets, using ONLY 100%-stable CRPs for both the
// training and the test set (unstable CRPs mislead the training, and only
// stable CRPs matter for authentication).
#pragma once

#include <cstdint>

#include "ml/dataset.hpp"
#include "ml/mlp.hpp"
#include "puf/model.hpp"
#include "sim/chip.hpp"

namespace xpuf::puf {

/// Stable-CRP attack corpus: features are phi rows, targets are XOR bits.
struct AttackDataset {
  ml::Dataset train;
  ml::Dataset test;
  std::size_t n_pufs = 0;
  std::size_t challenges_measured = 0;  ///< raw draws before stability filter
  double stable_fraction = 0.0;         ///< measured all-PUF-stable yield
};

struct AttackDatasetConfig {
  std::size_t n_pufs = 4;
  std::size_t challenges = 100'000;   ///< random challenges measured
  std::uint64_t trials = 10'000;      ///< evaluations per soft response
  double train_fraction = 0.9;        ///< the paper's 90/10 split
  sim::Environment environment = sim::Environment::nominal();
};

/// Builds the paper's attack corpus from a chip with intact fuses: measures
/// soft responses of the first n PUFs per challenge, keeps challenges that
/// are 100% stable on all of them, XORs the (stable, hence noiseless) hard
/// responses into the target bit, and splits 90/10.
AttackDataset build_stable_attack_dataset(const sim::XorPufChip& chip,
                                          const AttackDatasetConfig& config, Rng& rng);

struct AttackResult {
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  std::size_t train_size = 0;
  std::size_t test_size = 0;
  double train_time_ms = 0.0;
  std::size_t optimizer_iterations = 0;

  /// The paper reports training speed as milliseconds per training CRP.
  double ms_per_crp() const {
    return train_size == 0 ? 0.0 : train_time_ms / static_cast<double>(train_size);
  }
};

struct MlpAttackConfig {
  ml::MlpOptions mlp;      ///< defaults to the paper's 35/25/25 topology
  ml::LbfgsOptions lbfgs;  ///< full-batch L-BFGS as in the paper
};

/// Trains the MLP attack on `data.train` (one initialization, seeded by
/// config.mlp.seed) and scores on `data.test`.
AttackResult run_mlp_attack(const AttackDataset& data, const MlpAttackConfig& config = {});

}  // namespace xpuf::puf
