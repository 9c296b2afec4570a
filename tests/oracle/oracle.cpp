#include "oracle/oracle.hpp"

#include <span>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "ml/linear_regression.hpp"
#include "puf/transform.hpp"
#include "sim/linear.hpp"

namespace xpuf::oracle {

namespace {

void require_stages(const std::vector<sim::Challenge>& challenges, const sim::XorPufChip& chip) {
  for (const sim::Challenge& c : challenges)
    XPUF_REQUIRE(c.size() == chip.stages(), "challenge length != chip stage count");
}

}  // namespace

ScalarTester::ScalarTester(sim::Environment env, std::uint64_t trials, Rng rng)
    : env_(env), trials_(trials), rng_(rng) {
  XPUF_REQUIRE(trials > 0, "ScalarTester needs at least one trial per challenge");
}

std::vector<sim::Challenge> ScalarTester::random_challenges(const sim::XorPufChip& chip,
                                                            std::size_t count) {
  return sim::random_challenges(chip.stages(), count, rng_);
}

sim::ChipSoftScan ScalarTester::scan_individual(const sim::XorPufChip& chip,
                                                const std::vector<sim::Challenge>& challenges) {
  require_stages(challenges, chip);
  const std::size_t n_pufs = chip.puf_count();
  const std::size_t n_ch = challenges.size();
  sim::ChipSoftScan scan;
  scan.challenges = challenges;
  scan.trials = trials_;
  scan.environment = env_;
  scan.soft.assign(n_pufs, std::vector<double>(n_ch));
  scan.stable.assign(n_pufs, std::vector<bool>(n_ch));
  const StreamFamily streams(rng_.fork_base());
  for (std::size_t c = 0; c < n_ch; ++c) {
    for (std::size_t p = 0; p < n_pufs; ++p) {
      Rng cell = streams.stream(p * n_ch + c);
      const sim::SoftMeasurement m =
          chip.measure_soft_response(p, challenges[c], env_, trials_, cell);
      scan.soft[p][c] = m.soft_response();
      scan.stable[p][c] = m.fully_stable();
    }
  }
  return scan;
}

puf::ChallengeScreener::Outcome serial_screen(const puf::ModelView& view, std::size_t n_pufs,
                                              const StreamFamily& family,
                                              std::uint64_t first_index, std::size_t count,
                                              std::size_t max_attempts,
                                              const puf::ChallengeScreener::Sink& sink) {
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= view.puf_count(), "screener n_pufs out of range");
  XPUF_REQUIRE(count >= 1, "screening quota must be positive");
  XPUF_REQUIRE(sink != nullptr, "screening needs a sink");
  const std::size_t stages = view.stages();
  const std::size_t features = stages + 1;
  std::vector<puf::ThresholdPair> thresholds;
  for (std::size_t p = 0; p < n_pufs; ++p) thresholds.push_back(view.adjusted_thresholds(p));
  std::vector<double> phi(features);
  std::vector<double> raw(n_pufs);
  std::vector<std::uint64_t> row(sim::packed_words(stages));
  sim::Challenge candidate;
  puf::ChallengeScreener::Outcome out;
  while (out.accepted < count && out.tried < max_attempts) {
    Rng rng = family.stream(first_index + out.tried);
    puf::ChallengeScreener::candidate_into(row, stages, rng);
    sim::unpack_challenge_into(row, stages, candidate);
    ++out.tried;
    sim::feature_fill(candidate, phi.data());
    bool stable = true;
    for (std::size_t p = 0; p < n_pufs && stable; ++p) {
      const std::span<const double> w = view.weights(p);
      double acc = 0.0;
      for (std::size_t k = 0; k < features; ++k) acc += phi[k] * w[k];
      raw[p] = acc;
      stable = thresholds[p].classify(acc) != puf::StableClass::kUnstable;
    }
    if (!stable) continue;
    // The early exit above never fires for a stable candidate, so every
    // raw[p] is populated here.
    ++out.stable;
    bool bit = false;
    for (std::size_t p = 0; p < n_pufs; ++p) bit ^= raw[p] > 0.5;
    if (sink(row, bit)) ++out.accepted;
  }
  out.filled = out.accepted >= count;
  out.next_index = first_index + out.tried;
  return out;
}

puf::ServerModel materialized_enroll(const puf::EnrollmentConfig& config,
                                     const sim::XorPufChip& chip, Rng& rng) {
  sim::ChipTester tester(config.environment, config.trials, rng.fork());
  const sim::ChipSoftScan scan =
      tester.scan_individual(chip, tester.random_challenges(chip, config.training_challenges));
  const linalg::Matrix phi = puf::feature_matrix(scan.challenges);
  std::vector<puf::PufEnrollment> pufs;
  for (const std::vector<double>& soft : scan.soft) {
    ml::Dataset data;
    data.x = phi;
    data.y = linalg::Vector(soft);
    Timer timer;
    ml::LinearRegression reg;  // no intercept: phi carries the constant feature
    reg.fit(data);
    puf::PufEnrollment e;
    e.fit_time_ms = timer.millis();
    const linalg::Vector predicted = reg.predict(phi);
    e.model = puf::ArbiterPufModel(reg.coefficients());
    e.thresholds = puf::derive_thresholds(predicted.span(), std::span<const double>(soft));
    e.train_r_squared = reg.train_r_squared();
    pufs.push_back(std::move(e));
  }
  return puf::ServerModel(chip.id(), std::move(pufs));
}

}  // namespace xpuf::oracle
