// Enrollment phase of the model-assisted XOR PUF (paper Fig 6).
//
// While the chip's fuses are intact, the authorized tester measures soft
// responses of every individual arbiter PUF for a batch of random
// challenges, fits a linear-regression delay model per PUF (soft responses
// regressed on parity features — linear, not logistic, because soft
// responses are fractional), derives the Thr('0')/Thr('1') stability
// thresholds, and stores everything in the server-side database. The fuses
// are then blown; the server never needs device access again.
//
// Enroller::enroll (a streamed scan) and Enroller::enroll_from_scan (a
// measured scan) share one fit body: normal equations accumulated over the
// challenges' suffix-parity words (ml/streaming.hpp), one Cholesky for all
// PUFs, then thresholds and R^2 from the parity tiles' predictions. The
// result equals an ordinary least-squares fit over the materialized Phi bit
// for bit; that fit is kept only as a test oracle (tests/oracle/).
#pragma once

#include <cstdint>
#include <vector>

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

  /// Batched raw predictions: row c, column p holds PUF p's prediction for
  /// challenges[c], bit-identical to predict_soft per cell — the parity
  /// tiles of the stacked model weights accumulate each dot in the same
  /// ascending index order (sim/linear.hpp).
  linalg::Matrix predict_raw_batch(const std::vector<Challenge>& challenges,
                                   std::size_t n_pufs) const;
  linalg::Matrix predict_raw_batch(const std::vector<Challenge>& challenges) const {
    return predict_raw_batch(challenges, puf_count());
  }

 private:
  std::size_t chip_id_ = 0;
  std::vector<PufEnrollment> pufs_;
  BetaFactors betas_;
};

struct EnrollmentConfig {
  std::size_t training_challenges = 5000;  ///< the paper's chosen train size
  std::uint64_t trials = 10'000;           ///< counter evaluations per CRP
  sim::Environment environment = sim::Environment::nominal();
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
  /// fixed budget and measures the rest again. The model is bit-identical
  /// for any chunk size and thread count, and to the ordinary least-squares
  /// fit over a materialized Phi (see DESIGN.md "Streaming enrollment").
  ServerModel enroll(const sim::XorPufChip& chip, Rng& rng) const;

  /// Enrolls from an existing soft-response scan (used when the same
  /// measurement set feeds several analyses): the same normal-equation fit
  /// and diagnostics as enroll(), over the scan as one chunk.
  ServerModel enroll_from_scan(std::size_t chip_id, const sim::ChipSoftScan& scan) const;

 private:
  EnrollmentConfig config_;
};

}  // namespace xpuf::puf
