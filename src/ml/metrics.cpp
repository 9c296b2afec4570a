#include "ml/metrics.hpp"

#include "common/error.hpp"
#include "common/math.hpp"

namespace xpuf::ml {

double accuracy(std::span<const double> predicted, std::span<const double> truth) {
  XPUF_REQUIRE(predicted.size() == truth.size(), "accuracy length mismatch");
  if (predicted.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i)
    if ((predicted[i] >= 0.5) == (truth[i] >= 0.5)) ++hits;
  return static_cast<double>(hits) / static_cast<double>(predicted.size());
}

double r_squared(std::span<const double> predicted, std::span<const double> truth) {
  XPUF_REQUIRE(predicted.size() == truth.size(), "r_squared length mismatch");
  if (truth.empty()) return 0.0;
  const double m = mean(truth);
  double rss = 0.0, tss = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    rss += (predicted[i] - truth[i]) * (predicted[i] - truth[i]);
    tss += (truth[i] - m) * (truth[i] - m);
  }
  return tss > 0.0 ? 1.0 - rss / tss : 0.0;
}

}  // namespace xpuf::ml
