// Threshold-level adjustment (paper Sec 5, Figs 9 and 11).
//
// Raw training thresholds can mis-classify CRPs that were never measured, or
// that drift at other voltage/temperature corners. The paper's remedy is to
// scale Thr('0') down by beta0 and Thr('1') up by beta1 — starting from 1.00
// and stepping until no CRP the model selects as stable is unstable in the
// evaluation measurements. Evaluation data may span several corners; the
// betas found against the full V/T grid are the deployment values.
#pragma once

#include <vector>

#include "puf/enrollment.hpp"

namespace xpuf::puf {

/// Evaluation measurements for one corner: soft responses of every PUF for a
/// challenge list (soft[puf][challenge]).
struct EvaluationBlock {
  std::vector<Challenge> challenges;
  std::vector<std::vector<double>> soft;
  sim::Environment environment;
};

struct BetaSearchResult {
  BetaFactors betas;
  std::size_t violations_before = 0;  ///< unstable-selected CRPs at beta = 1
  std::size_t violations_after = 0;   ///< remaining (0 unless search hit a bound)
  bool converged = false;             ///< all violations filtered out
};

/// Finds the common beta pair for one chip over the given evaluation blocks.
/// Challenges may repeat across blocks (same challenge at several corners).
/// Each beta steps from 1.00 in the paper's 0.01 increments, beta0 no lower
/// than 0.05 and beta1 no higher than 4.0. A violation is a stable-'0'
/// prediction whose measured soft response is not exactly 0.00, or a
/// stable-'1' one not exactly 1.00: a stable prediction with the wrong
/// value counts too, as the zero-Hamming-distance authentication requires.
BetaSearchResult find_betas(const ServerModel& model,
                            const std::vector<EvaluationBlock>& blocks);

/// The paper deploys one beta pair for the whole lot: the most conservative
/// values over a sample of chips (min beta0, max beta1).
BetaFactors conservative_betas(const std::vector<BetaFactors>& per_chip);

/// Measures an evaluation block for a chip at a corner (enrollment-phase
/// tap access required).
EvaluationBlock measure_evaluation_block(const sim::XorPufChip& chip,
                                         const std::vector<Challenge>& challenges,
                                         const sim::Environment& env,
                                         std::uint64_t trials, Rng& rng);

}  // namespace xpuf::puf
