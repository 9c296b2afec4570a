// Test-side reference implementations of the evaluation core.
//
// Each oracle computes, the slow and obvious way, exactly what a production
// path computes, and is kept only so tests and the A/B benches can hold the
// production path to it bit for bit. None is a production fallback, so none
// lives in src/:
//
//  - ScalarTester: sim::ChipTester's individual scan with every cell walked
//    through the recursive stage model (XorPufChip::measure_soft_response)
//    instead of the parity-word tiles.
//  - serial_screen: puf::ChallengeScreener's walk one candidate at a time,
//    one feature_fill row and n ascending dots per candidate, instead of the
//    byte-table survivor cascade.
//  - materialized_enroll: puf::Enroller::enroll over a materialized scan and
//    an ml::LinearRegression fit over the full Phi matrix, instead of the
//    streamed normal equations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "puf/enrollment.hpp"
#include "puf/model_view.hpp"
#include "puf/screening.hpp"
#include "sim/chip.hpp"
#include "sim/tester.hpp"

namespace xpuf::oracle {

/// sim::ChipTester's API and RNG contract with per-cell evaluation: each
/// scan takes one fork_base() draw and cell (p, c) draws from stream
/// p * challenges + c. A ScalarTester and a ChipTester built from equal
/// generators therefore agree scan for scan, bit for bit. Serial; records
/// no metrics.
class ScalarTester {
 public:
  ScalarTester(sim::Environment env, std::uint64_t trials, Rng rng);

  std::vector<sim::Challenge> random_challenges(const sim::XorPufChip& chip,
                                                std::size_t count);
  sim::ChipSoftScan scan_individual(const sim::XorPufChip& chip,
                                    const std::vector<sim::Challenge>& challenges);

 private:
  sim::Environment env_;
  std::uint64_t trials_;
  Rng rng_;
};

/// ChallengeScreener::screen's walk over the first `n_pufs` PUFs of `view`,
/// serially: candidate first_index + j is ChallengeScreener::candidate_into
/// over family.stream(first_index + j), its delays are ascending dots of the
/// weights with its feature_fill row, and it is stable when every PUF's
/// delay clears the beta-adjusted thresholds. The outcome's exact_fallbacks
/// is 0; every other field is the production walk's.
puf::ChallengeScreener::Outcome serial_screen(const puf::ModelView& view, std::size_t n_pufs,
                                              const StreamFamily& family,
                                              std::uint64_t first_index, std::size_t count,
                                              std::size_t max_attempts,
                                              const puf::ChallengeScreener::Sink& sink);

/// Enroller(config).enroll(chip, rng) the whole-scan way: draws the same
/// training challenges and measurements into one ChipSoftScan, then fits
/// each PUF with ml::LinearRegression over the materialized Phi matrix and
/// derives its thresholds with derive_thresholds. Consumes `rng` exactly as
/// enroll() does; fit_time_ms is each PUF's own fit time.
puf::ServerModel materialized_enroll(const puf::EnrollmentConfig& config,
                                     const sim::XorPufChip& chip, Rng& rng);

}  // namespace xpuf::oracle
