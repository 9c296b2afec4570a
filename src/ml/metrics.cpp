#include "ml/metrics.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"

namespace xpuf::ml {

double ConfusionMatrix::accuracy() const {
  const std::size_t t = total();
  if (t == 0) return 0.0;
  return static_cast<double>(true_positive + true_negative) / static_cast<double>(t);
}

double ConfusionMatrix::precision() const {
  const std::size_t d = true_positive + false_positive;
  return d == 0 ? 0.0 : static_cast<double>(true_positive) / static_cast<double>(d);
}

double ConfusionMatrix::recall() const {
  const std::size_t d = true_positive + false_negative;
  return d == 0 ? 0.0 : static_cast<double>(true_positive) / static_cast<double>(d);
}

double ConfusionMatrix::f1() const {
  const double p = precision();
  const double r = recall();
  return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

double accuracy(std::span<const double> predicted, std::span<const double> truth) {
  XPUF_REQUIRE(predicted.size() == truth.size(), "accuracy length mismatch");
  if (predicted.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i)
    if ((predicted[i] >= 0.5) == (truth[i] >= 0.5)) ++hits;
  return static_cast<double>(hits) / static_cast<double>(predicted.size());
}

ConfusionMatrix confusion(std::span<const double> predicted, std::span<const double> truth) {
  XPUF_REQUIRE(predicted.size() == truth.size(), "confusion length mismatch");
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const bool p = predicted[i] >= 0.5;
    const bool t = truth[i] >= 0.5;
    if (p && t) ++cm.true_positive;
    else if (!p && !t) ++cm.true_negative;
    else if (p && !t) ++cm.false_positive;
    else ++cm.false_negative;
  }
  return cm;
}

double mse(std::span<const double> predicted, std::span<const double> truth) {
  XPUF_REQUIRE(predicted.size() == truth.size(), "mse length mismatch");
  if (predicted.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double e = predicted[i] - truth[i];
    s += e * e;
  }
  return s / static_cast<double>(predicted.size());
}

double mae(std::span<const double> predicted, std::span<const double> truth) {
  XPUF_REQUIRE(predicted.size() == truth.size(), "mae length mismatch");
  if (predicted.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) s += std::fabs(predicted[i] - truth[i]);
  return s / static_cast<double>(predicted.size());
}

double log_loss(std::span<const double> probabilities, std::span<const double> truth) {
  XPUF_REQUIRE(probabilities.size() == truth.size(), "log_loss length mismatch");
  if (probabilities.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    const double p = clamp(probabilities[i], 1e-12, 1.0 - 1e-12);
    s += truth[i] >= 0.5 ? -std::log(p) : -std::log1p(-p);
  }
  return s / static_cast<double>(probabilities.size());
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
