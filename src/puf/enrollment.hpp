// Enrollment phase of the model-assisted XOR PUF (paper Fig 6).
//
// While the chip's fuses are intact, the authorized tester measures soft
// responses of every individual arbiter PUF for a batch of random
// challenges, fits a linear-regression delay model per PUF (soft responses
// regressed on parity features — linear, not logistic, because soft
// responses are fractional), derives the Thr('0')/Thr('1') stability
// thresholds, and stores everything in the server-side database. The fuses
// are then blown; the server never needs device access again.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/linear_regression.hpp"
#include "puf/model.hpp"
#include "puf/stability.hpp"
#include "sim/tester.hpp"

namespace xpuf::puf {

/// Threshold scaling factors (paper Sec 5): beta0 < 1 tightens the stable-'0'
/// boundary, beta1 > 1 tightens the stable-'1' boundary.
struct BetaFactors {
  double beta0 = 1.0;
  double beta1 = 1.0;
};

/// Applies beta tightening to raw training thresholds. The paper scales the
/// raw threshold values (Fig 9); for the rare negative-threshold case the
/// scale is inverted so tightening always shrinks the acceptance region.
ThresholdPair tighten(const ThresholdPair& thresholds, const BetaFactors& betas);

/// Per-PUF enrollment record stored in the server database.
struct PufEnrollment {
  ArbiterPufModel model;      ///< fitted delay parameters (regression weights)
  ThresholdPair thresholds;   ///< raw training-set thresholds
  double train_r_squared = 0.0;
  double fit_time_ms = 0.0;
};

/// Server-side database entry for one chip: n per-PUF models + common betas.
class ServerModel {
 public:
  ServerModel() = default;
  ServerModel(std::size_t chip_id, std::vector<PufEnrollment> pufs);

  std::size_t chip_id() const { return chip_id_; }
  std::size_t puf_count() const { return pufs_.size(); }
  std::size_t stages() const;
  const PufEnrollment& puf(std::size_t i) const;

  const BetaFactors& betas() const { return betas_; }
  void set_betas(const BetaFactors& betas) { betas_ = betas; }

  /// Thr values after beta tightening for one PUF.
  ThresholdPair adjusted_thresholds(std::size_t puf_index) const;

  /// Model-predicted soft response of one PUF.
  double predict_soft(std::size_t puf_index, const Challenge& challenge) const;

  /// Stability class of one PUF's prediction under the adjusted thresholds.
  StableClass classify(std::size_t puf_index, const Challenge& challenge) const;

  /// True when the first `n_pufs` PUFs are all predicted stable — the
  /// challenge-selection predicate of the authentication flow (Fig 7).
  bool all_stable(const Challenge& challenge, std::size_t n_pufs) const;
  bool all_stable(const Challenge& challenge) const { return all_stable(challenge, puf_count()); }

  /// Predicted XOR response over the first `n_pufs` PUFs.
  bool predict_xor(const Challenge& challenge, std::size_t n_pufs) const;
  bool predict_xor(const Challenge& challenge) const { return predict_xor(challenge, puf_count()); }

  /// Batched raw predictions over a feature block: row c, column p holds
  /// PUF p's prediction for challenge c — one GEMM of Phi against the
  /// stacked model weights, bit-identical to predict_soft per cell (both
  /// accumulate the dot in ascending index order).
  linalg::Matrix predict_raw_batch(const FeatureBlock& block, std::size_t n_pufs) const;
  linalg::Matrix predict_raw_batch(const FeatureBlock& block) const {
    return predict_raw_batch(block, puf_count());
  }

  /// Batched all_stable over a block: out[c] != 0 iff the first n_pufs
  /// predictions for challenge c all clear the adjusted thresholds.
  std::vector<std::uint8_t> all_stable_batch(const FeatureBlock& block,
                                             std::size_t n_pufs) const;

  /// Batched predict_xor over a block.
  std::vector<std::uint8_t> predict_xor_batch(const FeatureBlock& block,
                                              std::size_t n_pufs) const;

 private:
  std::size_t chip_id_ = 0;
  std::vector<PufEnrollment> pufs_;
  BetaFactors betas_;
};

struct EnrollmentConfig {
  std::size_t training_challenges = 5000;  ///< the paper's chosen train size
  std::uint64_t trials = 10'000;           ///< counter evaluations per CRP
  sim::Environment environment = sim::Environment::nominal();
  double ridge = 0.0;  ///< regression regularization (0 = plain OLS)
  /// Challenges per streaming scan chunk: the working-set knob of enroll().
  /// Any value >= 1 yields bit-identical results; it only trades memory
  /// against per-chunk overhead.
  std::size_t chunk_challenges = 4096;
};

/// Runs the full enrollment of Fig 6 against a chip with intact fuses:
/// measure -> fit linear regression per PUF -> derive thresholds.
/// Does NOT blow the fuses — callers decide when to deploy (tests exercise
/// pre/post access rules, and the paper separates the burn as a final step).
class Enroller {
 public:
  explicit Enroller(EnrollmentConfig config) : config_(config) {}

  const EnrollmentConfig& config() const { return config_; }

  /// Enrolls a chip, deriving the training challenges from `rng`. Streams
  /// the scan in config().chunk_challenges-sized chunks and accumulates
  /// normal equations per chunk, so memory stays O(chunk + features^2 +
  /// sim::ChipScanStream::kRetainBytes) regardless of training_challenges:
  /// the stream keeps each cell's count for the diagnostics pass up to that
  /// fixed budget and measures the rest again. The returned model is
  /// bit-identical to enroll_materialized (see DESIGN.md "Streaming
  /// enrollment" for the argument).
  ServerModel enroll(const sim::XorPufChip& chip, Rng& rng) const;

  /// The historical whole-scan path: materialize every challenge and
  /// measurement, then fit per PUF. Kept as the reference the streaming
  /// path is benchmarked and equivalence-tested against; consumes `rng`
  /// exactly as enroll() does and returns the identical model.
  ServerModel enroll_materialized(const sim::XorPufChip& chip, Rng& rng) const;

  /// Enrolls from an existing soft-response scan (used when the same
  /// measurement set feeds several analyses).
  ServerModel enroll_from_scan(std::size_t chip_id, const sim::ChipSoftScan& scan) const;

  /// Same, with the scan's feature block supplied by the caller so Phi is
  /// computed once and shared across scans, corners, and the regression
  /// (block.challenges() must equal scan.challenges).
  ServerModel enroll_from_scan(std::size_t chip_id, const sim::ChipSoftScan& scan,
                               const FeatureBlock& block) const;

 private:
  EnrollmentConfig config_;
};

}  // namespace xpuf::puf
