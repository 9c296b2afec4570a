#include "puf/threshold_adjust.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace xpuf::puf {

namespace {

/// Per-PUF flattened evaluation data: model predictions paired with measured
/// soft responses, concatenated over every block/corner.
struct PufEvalData {
  std::vector<double> predicted;
  std::vector<double> measured;
};

std::vector<PufEvalData> flatten(const ServerModel& model,
                                 const std::vector<EvaluationBlock>& blocks) {
  std::vector<PufEvalData> data(model.puf_count());
  for (const auto& block : blocks) {
    XPUF_REQUIRE(block.soft.size() == model.puf_count(),
                 "evaluation block PUF count mismatch");
    // All models predict the whole block in one batch (bit-identical to
    // per-challenge predict_soft).
    const linalg::Matrix raw = model.predict_raw_batch(block.challenges);
    for (std::size_t p = 0; p < model.puf_count(); ++p) {
      XPUF_REQUIRE(block.soft[p].size() == block.challenges.size(),
                   "evaluation block row length mismatch");
      for (std::size_t c = 0; c < block.challenges.size(); ++c) {
        data[p].predicted.push_back(raw(c, p));
        data[p].measured.push_back(block.soft[p][c]);
      }
    }
  }
  return data;
}

constexpr double kStep = 0.01;     // the paper adjusts in 0.01 increments
constexpr double kMinBeta0 = 0.05;  // search floor (gives up below this)
constexpr double kMaxBeta1 = 4.0;   // search ceiling

std::size_t count_violations(const ServerModel& model, const std::vector<PufEvalData>& data,
                             const BetaFactors& betas) {
  std::size_t violations = 0;
  for (std::size_t p = 0; p < data.size(); ++p) {
    const ThresholdPair thr = tighten(model.puf(p).thresholds, betas);
    for (std::size_t i = 0; i < data[p].predicted.size(); ++i) {
      const double pred = data[p].predicted[i];
      const double soft = data[p].measured[i];
      if (pred < thr.thr0 && soft != 0.0) ++violations;
      else if (pred > thr.thr1 && soft != 1.0) ++violations;
    }
  }
  return violations;
}

std::size_t count_side0(const ServerModel& model, const std::vector<PufEvalData>& data,
                        double beta0) {
  std::size_t violations = 0;
  for (std::size_t p = 0; p < data.size(); ++p) {
    const ThresholdPair thr =
        tighten(model.puf(p).thresholds, BetaFactors{beta0, 1.0});
    for (std::size_t i = 0; i < data[p].predicted.size(); ++i)
      if (data[p].predicted[i] < thr.thr0 && data[p].measured[i] != 0.0)
        ++violations;
  }
  return violations;
}

std::size_t count_side1(const ServerModel& model, const std::vector<PufEvalData>& data,
                        double beta1) {
  std::size_t violations = 0;
  for (std::size_t p = 0; p < data.size(); ++p) {
    const ThresholdPair thr =
        tighten(model.puf(p).thresholds, BetaFactors{1.0, beta1});
    for (std::size_t i = 0; i < data[p].predicted.size(); ++i)
      if (data[p].predicted[i] > thr.thr1 && data[p].measured[i] != 1.0)
        ++violations;
  }
  return violations;
}

}  // namespace

BetaSearchResult find_betas(const ServerModel& model,
                            const std::vector<EvaluationBlock>& blocks) {
  XPUF_REQUIRE(!blocks.empty(), "beta search needs at least one evaluation block");
  const std::vector<PufEvalData> data = flatten(model, blocks);

  BetaSearchResult result;
  result.violations_before = count_violations(model, data, BetaFactors{1.0, 1.0});

  // The two sides are independent: beta0 only moves the stable-'0' boundary
  // and beta1 the stable-'1' boundary, so each is stepped separately, from
  // 1.00 toward stringency, exactly as the paper describes.
  double beta0 = 1.0;
  while (count_side0(model, data, beta0) > 0 && beta0 - kStep >= kMinBeta0) beta0 -= kStep;

  double beta1 = 1.0;
  while (count_side1(model, data, beta1) > 0 && beta1 + kStep <= kMaxBeta1) beta1 += kStep;

  result.betas = BetaFactors{beta0, beta1};
  result.violations_after = count_violations(model, data, result.betas);
  result.converged = result.violations_after == 0;
  return result;
}

BetaFactors conservative_betas(const std::vector<BetaFactors>& per_chip) {
  XPUF_REQUIRE(!per_chip.empty(), "conservative_betas over an empty set");
  BetaFactors out{1.0, 1.0};
  for (const auto& b : per_chip) {
    out.beta0 = std::min(out.beta0, b.beta0);
    out.beta1 = std::max(out.beta1, b.beta1);
  }
  return out;
}

EvaluationBlock measure_evaluation_block(const sim::XorPufChip& chip,
                                         const std::vector<Challenge>& challenges,
                                         const sim::Environment& env,
                                         std::uint64_t trials, Rng& rng) {
  XPUF_REQUIRE(trials > 0, "an evaluation block needs at least one trial per challenge");
  for (const auto& c : challenges)
    XPUF_REQUIRE(c.size() == chip.stages(), "challenge length != chip stage count");
  EvaluationBlock block;
  block.challenges = challenges;
  block.environment = env;
  block.soft.assign(chip.puf_count(), std::vector<double>(challenges.size(), 0.0));
  if (challenges.empty()) return block;
  // Probabilities for every (PUF, challenge) cell come from one batch; the
  // binomial counters then consume the caller's serial RNG in the exact
  // (p, c) order the per-cell measurement loop used, so the block is
  // reproducible draw for draw.
  const linalg::Matrix probs = chip.one_probabilities(challenges, env);
  for (std::size_t p = 0; p < chip.puf_count(); ++p)
    for (std::size_t c = 0; c < challenges.size(); ++c)
      block.soft[p][c] = static_cast<double>(rng.binomial(trials, probs(c, p))) /
                         static_cast<double>(trials);
  return block;
}

}  // namespace xpuf::puf
