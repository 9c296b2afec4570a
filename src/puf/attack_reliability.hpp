// Reliability-based CMA-ES modeling attack on XOR arbiter PUFs
// (Becker, CHES 2015 — the paper's ref [9]).
//
// Threat model: after deployment the individual-PUF taps are fused off, but
// the XOR output remains queryable. By asking the SAME challenge many times
// the attacker measures the XOR soft response and hence its *reliability*
// h = |2 s - 1|. A challenge is unreliable iff at least one constituent PUF
// races within its noise margin, so the reliability signal of the XOR leaks
// information about EACH constituent separately: hypothesizing weights w
// for one constituent, predicted reliability (|w . phi| > eps) correlates
// with measured h exactly when w matches some constituent. CMA-ES maximizes
// that correlation; restarts land on different constituents.
//
// The counter-measure implicit in the reproduced paper's protocol: servers
// issue only 100%-stable challenges, whose reliability is identically 1 —
// the transcript then carries no reliability gradient at all (bench ext2).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/dataset.hpp"
#include "puf/transform.hpp"
#include "sim/chip.hpp"

namespace xpuf::puf {

/// One reliability observation of the XOR output.
struct ReliabilityCrp {
  Challenge challenge;
  double soft = 0.0;  ///< XOR soft response in [0, 1]

  /// Reliability h in [0, 1]; 1 = perfectly stable.
  double reliability() const { return std::abs(2.0 * soft - 1.0); }
};

/// Queries the deployed chip's XOR output `trials` times per challenge —
/// the attack's only required access.
std::vector<ReliabilityCrp> collect_xor_reliability_crps(const sim::XorPufChip& chip,
                                                         std::size_t n_challenges,
                                                         std::uint64_t trials,
                                                         const sim::Environment& env,
                                                         Rng& rng);

/// The search itself is fixed in attack_reliability.cpp: 3 seeded CMA-ES
/// runs per constituent slot (best distinct one wins), a find whose weights
/// correlate above 0.35 with an earlier one is a duplicate, and a run below
/// 0.08 reliability correlation carries no signal.
struct ReliabilityAttackConfig {
  std::size_t n_pufs = 2;         ///< hypothesized XOR width
  std::size_t max_restarts = 24;  ///< constituent-slot attempts in total
};

struct ReliabilityAttackResult {
  /// Recovered constituent weight vectors (delay domain; scale and sign are
  /// arbitrary per vector — only the parity calibration below matters).
  std::vector<linalg::Vector> recovered;
  /// Reliability-correlation achieved by each accepted run.
  std::vector<double> fitness;
  std::size_t restarts_used = 0;
  std::size_t evaluations = 0;
  bool complete = false;  ///< found the requested number of constituents

  /// Predicted XOR bit (after calibration) for a challenge.
  bool predict(const Challenge& challenge) const;
  bool parity_flip = false;  ///< global sign calibration result
};

/// Runs the attack on reliability observations; `holdout` (hard XOR bits,
/// parity features as rows) is used only to calibrate the single global
/// parity bit and report accuracy — the recovery itself never sees it.
ReliabilityAttackResult run_reliability_attack(const std::vector<ReliabilityCrp>& observations,
                                               const ml::Dataset& holdout,
                                               const ReliabilityAttackConfig& config);

/// Accuracy of the calibrated result on a labeled set.
double reliability_attack_accuracy(const ReliabilityAttackResult& result,
                                   const ml::Dataset& labeled);

}  // namespace xpuf::puf
