// Three-category stability classification of CRPs (paper Sec 4, Fig 8).
//
// Measured side: a CRP is "100% stable" when the soft response sits in the
// first (0.00) or last (1.00) histogram bin — every one of the K repeated
// evaluations agreed.
//
// Model side: predicted soft responses are classified into stable-'0',
// unstable, and stable-'1' by two thresholds. Thr('0') is the lowest
// predicted soft response that produced a measured soft response > 0.00 in
// the training set; Thr('1') the highest that produced one < 1.00. A
// prediction strictly below Thr('0') (resp. above Thr('1')) is declared
// stable; the band between them — including CRPs stable in measurement but
// marginal in the model — is discarded as unstable.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace xpuf::puf {

enum class StableClass { kStable0, kUnstable, kStable1 };

/// Measured-side stability test on a soft response in [0, 1].
inline bool measured_stable(double soft_response) {
  return soft_response == 0.0 || soft_response == 1.0;
}

/// Model-side classification thresholds in predicted-soft-response units.
struct ThresholdPair {
  double thr0 = 0.0;  ///< predictions below this are stable '0'
  double thr1 = 1.0;  ///< predictions above this are stable '1'

  StableClass classify(double predicted) const {
    if (predicted < thr0) return StableClass::kStable0;
    if (predicted > thr1) return StableClass::kStable1;
    return StableClass::kUnstable;
  }

  bool is_stable(double predicted) const {
    return classify(predicted) != StableClass::kUnstable;
  }

  /// classify(predicted) == kUnstable without a branch: both comparisons
  /// always run and combine bitwise, so a screener can OR the verdicts of
  /// all n PUFs into one mask. NaN fails both comparisons — unstable, as in
  /// classify.
  bool unstable(double predicted) const {
    return static_cast<bool>(static_cast<unsigned>(!(predicted < thr0)) &
                             static_cast<unsigned>(!(predicted > thr1)));
  }
};

/// Derives Thr('0')/Thr('1') from paired (predicted, measured) soft
/// responses exactly as Fig 8 defines them. If no unstable CRP exists in the
/// training data the thresholds collapse to the 0.5 center, which is the
/// conservative limit. Inputs must have equal length.
ThresholdPair derive_thresholds(std::span<const double> predicted,
                                std::span<const double> measured);

/// Degenerate-case handling shared by derive_thresholds and the streaming
/// enrollment accumulator: takes the raw extrema (thr0 = min prediction with
/// measured flips toward '1', +inf if none; thr1 = max prediction with flips
/// toward '0', -inf if none) and collapses missing or crossed thresholds to
/// the conservative 0.5 center.
ThresholdPair finalize_thresholds(double thr0, double thr1);

}  // namespace xpuf::puf
