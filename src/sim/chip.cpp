#include "sim/chip.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace xpuf::sim {

namespace {
// Challenges per parallel chunk in one_probabilities. Fixed (never derived
// from the thread count) so the chunk grid is identical for any pool size;
// matches the tester's scan chunking.
constexpr std::size_t kProbabilityChunk = 64;
}  // namespace

XorPufChip::XorPufChip(std::size_t chip_id, std::size_t n_pufs,
                       const DeviceParameters& params, const EnvironmentModel& env_model,
                       Rng& rng)
    : chip_id_(chip_id), fuses_(n_pufs) {
  XPUF_REQUIRE(n_pufs > 0, "a chip needs at least one PUF");
  devices_.reserve(n_pufs);
  for (std::size_t i = 0; i < n_pufs; ++i) devices_.emplace_back(params, env_model, rng);
}

bool XorPufChip::xor_response(const Challenge& challenge, const Environment& env,
                              Rng& rng) const {
  XPUF_REQUIRE(challenge.size() == stages(), "challenge length != chip stage count");
  bool out = false;
  for (const auto& d : devices_) out ^= d.evaluate(challenge, env, rng);
  return out;
}

void XorPufChip::xor_responses(std::span<const std::uint64_t> rows, std::size_t stages,
                               const Environment& env, Rng& rng,
                               std::vector<std::uint8_t>& out) const {
  out.clear();
  if (rows.empty()) return;
  XPUF_REQUIRE(stages == this->stages(), "challenge length != chip stage count");
  const std::size_t stride = packed_words(stages);
  XPUF_REQUIRE(rows.size() % stride == 0, "packed rows need packed_words(stages) words each");
  const std::size_t n = devices_.size();
  // delays[(2 i + b) n + d]: device d's stage-i delay for select bit b, so
  // one stage's n lockstep adds read contiguous doubles.
  std::vector<double> delays(2 * stages * n);
  std::vector<double> own(2 * stages);
  std::vector<double> sigma(n);
  for (std::size_t d = 0; d < n; ++d) {
    devices_[d].effective_stage_delays(env, own);
    for (std::size_t j = 0; j < 2 * stages; ++j) delays[j * n + d] = own[j];
    sigma[d] = devices_[d].noise_sigma(env);
  }
  std::vector<double> delta(n);
  out.resize(rows.size() / stride);
  for (std::size_t c = 0; c < out.size(); ++c) {
    const std::uint64_t* row = rows.data() + c * stride;
    std::fill(delta.begin(), delta.end(), 0.0);
    for (std::size_t i = 0; i < stages; ++i) {
      const std::uint64_t crossed = (row[i / 64] >> (i % 64)) & 1U;
      const double* stage = delays.data() + (2 * i + crossed) * n;
      for (std::size_t d = 0; d < n; ++d) delta[d] = race_stage(delta[d], crossed, stage[d]);
    }
    bool bit = false;
    for (std::size_t d = 0; d < n; ++d) bit ^= delta[d] + rng.normal(0.0, sigma[d]) > 0.0;
    out[c] = bit ? 1 : 0;
  }
}

void XorPufChip::check_tap(std::size_t puf_index) const {
  XPUF_REQUIRE(puf_index < devices_.size(), "PUF index out of range");
  if (!fuses_.intact(puf_index))
    throw AccessError("individual PUF tap " + std::to_string(puf_index) +
                      " is fused off (chip " + std::to_string(chip_id_) + " is deployed)");
}

bool XorPufChip::individual_response(std::size_t puf_index, const Challenge& challenge,
                                     const Environment& env, Rng& rng) const {
  XPUF_REQUIRE(challenge.size() == stages(), "challenge length != chip stage count");
  check_tap(puf_index);
  return devices_[puf_index].evaluate(challenge, env, rng);
}

SoftMeasurement XorPufChip::measure_soft_response(std::size_t puf_index,
                                                  const Challenge& challenge,
                                                  const Environment& env,
                                                  std::uint64_t trials, Rng& rng) const {
  check_tap(puf_index);
  XPUF_REQUIRE(trials > 0, "soft-response measurement needs at least one trial");
  const double p = devices_[puf_index].one_probability(challenge, env);
  return {rng.binomial(trials, p), trials};
}

SoftMeasurement XorPufChip::measure_xor_soft_response(const Challenge& challenge,
                                                      const Environment& env,
                                                      std::uint64_t trials,
                                                      Rng& rng) const {
  XPUF_REQUIRE(trials > 0, "soft-response measurement needs at least one trial");
  // The XOR of independent Bernoulli responses is Bernoulli with
  // p_xor = (1 - prod(1 - 2 p_i)) / 2 (parity of independent bits), so the
  // counter statistic is again an exact binomial sample.
  double prod = 1.0;
  for (const auto& d : devices_) prod *= 1.0 - 2.0 * d.one_probability(challenge, env);
  const double p_xor = 0.5 * (1.0 - prod);
  return {rng.binomial(trials, p_xor), trials};
}

ChipLinearView XorPufChip::linear_view(const Environment& env, std::size_t n_pufs) const {
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= devices_.size(), "n_pufs out of range");
  std::vector<DeviceLinearView> views;
  views.reserve(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    check_tap(p);
    views.push_back(devices_[p].linear_view(env));
  }
  return ChipLinearView(std::move(views));
}

// Taps are checked by linear_view, lengths by challenge_parity.
// xpuf-lint: guarded-by(challenge_parity)
linalg::Matrix XorPufChip::one_probabilities(const std::vector<Challenge>& challenges,
                                             const Environment& env) const {
  const ChipLinearView view = linear_view(env);
  const std::vector<std::uint64_t> parity = challenge_parity(challenges, stages());
  linalg::Matrix probs(challenges.size(), view.puf_count());
  parallel_for(challenges.size(), kProbabilityChunk,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 view.one_probabilities_into(parity, begin, end, probs.row(begin));
               });
  return probs;
}

bool XorPufChip::tap_accessible(std::size_t puf_index) const {
  XPUF_REQUIRE(puf_index < devices_.size(), "PUF index out of range");
  return fuses_.intact(puf_index);
}

void XorPufChip::blow_fuses() { fuses_.blow_all(); }

void XorPufChip::age(double stress_hours) {
  for (auto& d : devices_) d.age(stress_hours);
}

double XorPufChip::stress_hours() const { return devices_.front().stress_hours(); }

const ArbiterPufDevice& XorPufChip::device_for_analysis(std::size_t puf_index) const {
  XPUF_REQUIRE(puf_index < devices_.size(), "PUF index out of range");
  return devices_[puf_index];
}

}  // namespace xpuf::sim
