#include "sim/chip.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace xpuf::sim {

namespace {
// Challenges per parallel chunk in one_probabilities. Fixed (never derived
// from the thread count) so the chunk grid is identical for any pool size;
// matches the tester's scan chunking.
constexpr std::size_t kProbabilityChunk = 64;

// Rows xor_responses races per block: the block's accumulators (n per row)
// stay in L1 while every stage walks them.
constexpr std::size_t kRaceBlock = 64;
// Challenges per vector of the race: four doubles, one row each.
constexpr std::size_t kLanes = 4;

// The lockstep race of `count` <= kRaceBlock packed rows of `stride` words
// through the n devices' stage delays (device d's at delays + 2 d stages).
// acc[(g n + d) kLanes + k] ends as device d's delay difference on row
// g kLanes + k. The lanes are challenges: each stage's bit in a group's four
// rows becomes a sign mask that flips the group's n accumulators (race_stage's
// XOR) and picks each device's straight or crossed delay, followed by one
// add, so every lane performs delay_difference's IEEE operations in its
// order. Lanes past `count` race all-straight and are never read. Written
// once with vector extensions: AVX2 under the SIMD gate, SSE2 pairs without
// it; the vector types stay inside so no ABI depends on the ISA.
void race_block(const std::uint64_t* rows, std::size_t stride, std::size_t count,
                std::size_t stages, const double* delays, std::size_t n, double* acc) {
  typedef double Delays __attribute__((vector_size(32)));
  typedef std::uint64_t Bits __attribute__((vector_size(32)));
  const std::size_t groups = (count + kLanes - 1) / kLanes;
  std::fill(acc, acc + groups * n * kLanes, 0.0);
  std::uint64_t words[kRaceBlock];
  for (std::size_t w = 0; w < stride; ++w) {
    for (std::size_t r = 0; r < groups * kLanes; ++r)
      words[r] = r < count ? rows[r * stride + w] : 0;
    const std::size_t end = std::min(stages, 64 * w + 64);
    for (std::size_t i = 64 * w; i < end; ++i) {
      for (std::size_t g = 0; g < groups; ++g) {
        Bits bit;
        std::memcpy(&bit, words + g * kLanes, sizeof bit);
        bit = (bit >> (i % 64)) & 1;
        const Bits take = -bit;  // all ones where the stage is crossed
        const Bits flip = bit << 63;
        double* a = acc + g * n * kLanes;
        const double* stage = delays + 2 * i;
        for (std::size_t d = 0; d < n; ++d, a += kLanes, stage += 2 * stages) {
          const Delays straight = {stage[0], stage[0], stage[0], stage[0]};
          const Delays crossed = {stage[1], stage[1], stage[1], stage[1]};
          const Bits pick = ((Bits)straight & ~take) | ((Bits)crossed & take);
          Bits delta;
          std::memcpy(&delta, a, sizeof delta);
          const Delays sum = (Delays)(delta ^ flip) + (Delays)pick;
          std::memcpy(a, &sum, sizeof sum);
        }
      }
    }
  }
}
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
  // One scratch for the call: device d's (straight, crossed) stage delays at
  // delays + 2 d stages, the n noise sigmas, then one block's accumulators.
  std::vector<double> scratch(2 * stages * n + n + kRaceBlock * n);
  double* const delays = scratch.data();
  double* const sigma = delays + 2 * stages * n;
  double* const acc = sigma + n;
  for (std::size_t d = 0; d < n; ++d) {
    devices_[d].effective_stage_delays(env, {delays + 2 * stages * d, 2 * stages});
    sigma[d] = devices_[d].noise_sigma(env);
  }
  out.resize(rows.size() / stride);
  for (std::size_t first = 0; first < out.size(); first += kRaceBlock) {
    const std::size_t count = std::min(kRaceBlock, out.size() - first);
    race_block(rows.data() + first * stride, stride, count, stages, delays, n, acc);
    // The noise samples, in (row, device) order as xor_response draws them.
    for (std::size_t r = 0; r < count; ++r) {
      const double* delta = acc + (r / kLanes) * n * kLanes + r % kLanes;
      bool bit = false;
      for (std::size_t d = 0; d < n; ++d)
        bit ^= delta[d * kLanes] + rng.normal(0.0, sigma[d]) > 0.0;
      out[first + r] = bit ? 1 : 0;
    }
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
