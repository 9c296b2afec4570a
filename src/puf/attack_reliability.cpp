#include "puf/attack_reliability.hpp"

#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/math.hpp"
#include "ml/cmaes.hpp"
#include "puf/transform.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf {

std::vector<ReliabilityCrp> collect_xor_reliability_crps(const sim::XorPufChip& chip,
                                                         std::size_t n_challenges,
                                                         std::uint64_t trials,
                                                         const sim::Environment& env,
                                                         Rng& rng) {
  XPUF_REQUIRE(n_challenges > 0, "reliability collection needs challenges");
  std::vector<ReliabilityCrp> out;
  out.reserve(n_challenges);
  for (std::size_t i = 0; i < n_challenges; ++i) {
    ReliabilityCrp crp;
    crp.challenge = random_challenge(chip.stages(), rng);
    crp.soft =
        chip.measure_xor_soft_response(crp.challenge, env, trials, rng).soft_response();
    out.push_back(std::move(crp));
  }
  return out;
}

namespace {

constexpr std::size_t kSeedsPerSlot = 3;    // CMA-ES runs per slot; best distinct wins
constexpr double kDistinctThreshold = 0.35; // |weight corr| above = duplicate find
constexpr double kMinFitnessCorr = 0.08;    // reject runs with no reliability signal
constexpr std::uint64_t kSeed = 11;

/// CMA-ES tuned for the 33-dimensional reliability landscape; the wide
/// stagnation window matters — the landscape has long plateaus before the
/// basin of a constituent opens up.
const ml::CmaEsOptions kCmaEs{.lambda = 20,
                              .initial_sigma = 1.0,
                              .max_generations = 400,
                              .f_tolerance = 1e-12,
                              .stagnation_window = 80};

/// Candidate layout: the weight vector itself. The hypothetical reliability
/// of a constituent with weights w is smooth in the margin:
/// h_hat = tanh(|w . phi| / (0.5 * rms-margin)) — Becker's thresholded
/// indicator relaxed so CMA-ES sees a gradient-bearing landscape (the
/// normalization makes the objective scale-invariant in w).
struct ReliabilityObjective {
  const linalg::Matrix& phi;            // n x (k+1)
  const std::vector<double>& measured;  // reliability h per row

  double operator()(const linalg::Vector& cand) const {
    const std::size_t n = phi.rows();
    const std::size_t dim = phi.cols();
    std::vector<double> margin(n);
    double rms = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double s = linalg::dot({phi.row(r), dim}, cand.span());
      margin[r] = std::fabs(s);
      rms += s * s;
    }
    rms = std::sqrt(rms / static_cast<double>(n));
    if (rms <= 0.0) return 1.0;  // degenerate all-zero candidate
    const double scale = 0.5 * rms;
    std::vector<double> predicted(n);
    for (std::size_t r = 0; r < n; ++r) predicted[r] = std::tanh(margin[r] / scale);
    // Maximize correlation <=> minimize its negation.
    return -pearson_correlation(predicted, measured);
  }
};

}  // namespace

bool ReliabilityAttackResult::predict(const Challenge& challenge) const {
  XPUF_REQUIRE(!recovered.empty(), "predict on an empty attack result");
  bool parity = parity_flip;
  for (const auto& w : recovered) {
    // Delay-domain sign decision (not the 0.5-centered soft space).
    // Suffix-parity signs, highest stage first (sim::feature_fill's order).
    double s = 0.0;
    std::uint64_t suffix = 0;
    s += w[challenge.size()];
    for (std::size_t ii = challenge.size(); ii > 0; --ii) {
      const std::size_t i = ii - 1;
      suffix ^= static_cast<std::uint64_t>(challenge[i] != 0);
      s += w[i] * sim::parity_sign(suffix);
    }
    parity ^= s > 0.0;
  }
  return parity;
}

ReliabilityAttackResult run_reliability_attack(const std::vector<ReliabilityCrp>& observations,
                                               const ml::Dataset& holdout,
                                               const ReliabilityAttackConfig& config) {
  XPUF_REQUIRE(!observations.empty(), "reliability attack needs observations");
  XPUF_REQUIRE(config.n_pufs >= 1, "reliability attack needs a positive XOR width");

  const std::size_t stages = observations.front().challenge.size();
  const std::size_t dim = stages + 1;

  std::vector<Challenge> challenges;
  std::vector<double> reliability;
  challenges.reserve(observations.size());
  reliability.reserve(observations.size());
  for (const auto& o : observations) {
    XPUF_REQUIRE(o.challenge.size() == stages, "mixed challenge lengths");
    challenges.push_back(o.challenge);
    reliability.push_back(o.reliability());
  }
  const linalg::Matrix phi = feature_matrix(challenges);
  const ReliabilityObjective objective{phi, reliability};

  ReliabilityAttackResult result;
  Rng seed_rng(kSeed);

  auto is_duplicate = [&](const linalg::Vector& w) {
    for (const auto& prev : result.recovered) {
      const double wc = std::fabs(pearson_correlation(
          std::span<const double>(w.data(), dim),
          std::span<const double>(prev.data(), dim)));
      if (wc > kDistinctThreshold) return true;
    }
    return false;
  };

  // One slot per hoped-for constituent: several CMA-ES runs from different
  // seeds, keep the best-fitting candidate that is distinct from previous
  // finds. Weak local optima lose to genuine constituent basins this way.
  for (std::size_t slot = 0;
       slot < config.max_restarts && result.recovered.size() < config.n_pufs; ++slot) {
    ++result.restarts_used;
    double best_corr = -1.0;
    linalg::Vector best_w;
    for (std::size_t attempt = 0; attempt < kSeedsPerSlot; ++attempt) {
      Rng init_rng = seed_rng.fork();
      linalg::Vector x0(dim);
      for (std::size_t i = 0; i < dim; ++i) x0[i] = init_rng.normal();
      ml::CmaEsOptions copts = kCmaEs;
      copts.seed = init_rng.next_u64();
      const ml::CmaEsResult run = ml::minimize_cmaes(objective, std::move(x0), copts);
      result.evaluations += run.evaluations;
      const double corr = -run.value;
      if (corr <= best_corr) continue;
      linalg::Vector w(dim);
      for (std::size_t i = 0; i < dim; ++i) w[i] = run.x[i];
      if (is_duplicate(w)) continue;
      best_corr = corr;
      best_w = std::move(w);
    }
    // Genuine constituent basins fit distinctly better than blended local
    // optima; once one constituent is found, later finds must reach a
    // comparable correlation or the slot is retried with fresh seeds.
    double dynamic_floor = kMinFitnessCorr;
    for (double f2 : result.fitness) dynamic_floor = std::max(dynamic_floor, 0.55 * f2);
    if (best_corr < dynamic_floor || best_w.empty()) continue;
    result.recovered.push_back(std::move(best_w));
    result.fitness.push_back(best_corr);
  }
  result.complete = result.recovered.size() == config.n_pufs;

  // Calibrate the single global parity against the holdout, if usable.
  if (!result.recovered.empty() && !holdout.empty()) {
    std::size_t hits = 0;
    for (std::size_t r = 0; r < holdout.size(); ++r) {
      const Challenge c = challenge_from_features(
          linalg::Vector(std::vector<double>(holdout.x.row(r),
                                             holdout.x.row(r) + holdout.features())));
      if (result.predict(c) == (holdout.y[r] >= 0.5)) ++hits;
    }
    if (2 * hits < holdout.size()) result.parity_flip = true;
  }
  return result;
}

double reliability_attack_accuracy(const ReliabilityAttackResult& result,
                                   const ml::Dataset& labeled) {
  XPUF_REQUIRE(!labeled.empty(), "accuracy on an empty set");
  if (result.recovered.empty()) return 0.5;  // no model: chance
  std::size_t hits = 0;
  for (std::size_t r = 0; r < labeled.size(); ++r) {
    const Challenge c = challenge_from_features(
        linalg::Vector(std::vector<double>(labeled.x.row(r),
                                           labeled.x.row(r) + labeled.features())));
    if (result.predict(c) == (labeled.y[r] >= 0.5)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(labeled.size());
}

}  // namespace xpuf::puf
