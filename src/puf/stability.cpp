#include "puf/stability.hpp"

#include <limits>

#include "common/error.hpp"

namespace xpuf::puf {

ThresholdPair derive_thresholds(std::span<const double> predicted,
                                std::span<const double> measured) {
  XPUF_REQUIRE(predicted.size() == measured.size(),
               "derive_thresholds needs paired predictions and measurements");
  XPUF_REQUIRE(!predicted.empty(), "derive_thresholds on empty data");
  // Thr('0'): lowest prediction among CRPs with any '1' flips observed.
  // Thr('1'): highest prediction among CRPs with any '0' flips observed.
  double thr0 = std::numeric_limits<double>::infinity();
  double thr1 = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (measured[i] > 0.0 && predicted[i] < thr0) thr0 = predicted[i];
    if (measured[i] < 1.0 && predicted[i] > thr1) thr1 = predicted[i];
  }
  return finalize_thresholds(thr0, thr1);
}

// Raw extrema carry their own "absent" encoding (infinities), so every input
// is legal.
ThresholdPair finalize_thresholds(double thr0, double thr1) {
  // Degenerate training sets (all measured stable on one side) fall back to
  // the 0.5 center — the most conservative classification boundary.
  if (!(thr0 < std::numeric_limits<double>::infinity())) thr0 = 0.5;
  if (!(thr1 > -std::numeric_limits<double>::infinity())) thr1 = 0.5;
  // Crossed thresholds can only arise when the training set has no unstable
  // band at all (e.g. two perfectly stable CRPs); the stable regions would
  // overlap, so collapse to the conservative center instead.
  if (thr0 > thr1) {
    thr0 = 0.5;
    thr1 = 0.5;
  }
  return {thr0, thr1};
}

}  // namespace xpuf::puf
