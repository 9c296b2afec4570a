// Standard PUF quality metrics over a simulated fab lot: uniformity,
// uniqueness and reliability. The paper's evaluation focuses
// on stability and attack resistance; these classic metrics round out the
// characterization a PUF paper's reviewers expect, and the benches use the
// reliability metric to cross-check the stability machinery.
#pragma once

#include <cstdint>

#include "sim/population.hpp"

namespace xpuf::analysis {

/// Mean of a PUF's (or XOR PUF's) response bits over random challenges.
/// Ideal: 0.5.
double uniformity(const sim::XorPufChip& chip, std::size_t n_pufs,
                  std::size_t n_challenges, const sim::Environment& env, Rng& rng);

/// Mean pairwise inter-chip Hamming distance of XOR responses over a shared
/// challenge set, as a fraction of the response length. Ideal: 0.5.
double uniqueness(const sim::ChipPopulation& population, std::size_t n_pufs,
                  std::size_t n_challenges, const sim::Environment& env, Rng& rng);

/// Mean intra-chip Hamming distance between a reference read at the nominal
/// corner and repeated reads at `env`, as a fraction. Ideal: 0 (perfectly
/// reliable); typical silicon: a few percent, worse at corners.
double reliability_error(const sim::XorPufChip& chip, std::size_t n_pufs,
                         std::size_t n_challenges, std::size_t n_rereads,
                         const sim::Environment& env, Rng& rng);

}  // namespace xpuf::analysis
