#include "sim/device.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/math.hpp"
#include "sim/linear.hpp"

namespace xpuf::sim {

Challenge random_challenge(std::size_t stages, Rng& rng) {
  XPUF_REQUIRE(stages > 0, "a challenge needs at least one stage");
  Challenge c(stages);
  for (auto& bit : c) bit = rng.bernoulli() ? 1 : 0;
  return c;
}

ArbiterPufDevice::ArbiterPufDevice(const DeviceParameters& params,
                                   const EnvironmentModel& env_model, Rng& rng)
    : params_(params), env_model_(env_model) {
  XPUF_REQUIRE(params.stages > 0, "a PUF needs at least one stage");
  XPUF_REQUIRE(params.sigma_process > 0.0, "sigma_process must be positive");
  XPUF_REQUIRE(params.sigma_noise > 0.0, "sigma_noise must be positive");
  stage_delays_.resize(params.stages);
  for (auto& s : stage_delays_) {
    s.straight = rng.normal(0.0, params.sigma_process);
    s.crossed = rng.normal(0.0, params.sigma_process);
    s.straight_sensitivity = rng.normal(0.0, params.sigma_sensitivity);
    s.crossed_sensitivity = rng.normal(0.0, params.sigma_sensitivity);
    s.straight_aging = rng.normal(0.0, params.sigma_aging);
    s.crossed_aging = rng.normal(0.0, params.sigma_aging);
  }
}

double ArbiterPufDevice::aging_level() const {
  if (stress_hours_ <= 0.0) return 0.0;
  return std::pow(stress_hours_ / 1000.0, params_.aging_exponent);
}

void ArbiterPufDevice::age(double stress_hours) {
  XPUF_REQUIRE(stress_hours >= 0.0, "aging stress must be non-negative");
  stress_hours_ += stress_hours;
}

// Stage index is proven in-range by delay_difference's length guard; this is
// the innermost hot loop.  xpuf-lint: allow(require-guard)
double ArbiterPufDevice::effective_straight(std::size_t i, double scale, double shift,
                                            double aging) const {
  const StageDelays& s = stage_delays_[i];
  return s.straight * scale + s.straight_sensitivity * shift + s.straight_aging * aging;
}

// Same as effective_straight.  xpuf-lint: allow(require-guard)
double ArbiterPufDevice::effective_crossed(std::size_t i, double scale, double shift,
                                           double aging) const {
  const StageDelays& s = stage_delays_[i];
  return s.crossed * scale + s.crossed_sensitivity * shift + s.crossed_aging * aging;
}

double ArbiterPufDevice::delay_difference(const Challenge& challenge,
                                          const Environment& env) const {
  XPUF_REQUIRE(challenge.size() == stages(), "challenge length != stage count");
  const double scale = env_model_.delay_scale(env);
  const double shift = env_model_.sensitivity_shift(env);
  const double aging = aging_level();
  // Recursive race: a crossed stage swaps the two signal paths, negating the
  // accumulated top-minus-bottom difference before adding its own. Both the
  // negation (a sign-bit flip) and the stage's straight/crossed delay are
  // selected by the bit, not branched on, so each stage is one add — the
  // same IEEE operations as `delta += straight` / `delta = -delta + crossed`.
  double delta = 0.0;
  for (std::size_t i = 0; i < challenge.size(); ++i) {
    const std::uint64_t crossed = challenge[i] != 0;
    const double stage[2] = {effective_straight(i, scale, shift, aging),
                             effective_crossed(i, scale, shift, aging)};
    const double flipped =
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(delta) ^ (crossed << 63));
    delta = flipped + stage[crossed];
  }
  return delta;
}

double ArbiterPufDevice::noise_sigma(const Environment& env) const {
  return params_.sigma_noise * env_model_.noise_scale(env);
}

double ArbiterPufDevice::one_probability(const Challenge& challenge,
                                         const Environment& env) const {
  return normal_cdf(delay_difference(challenge, env) / noise_sigma(env));
}

// Challenge length is guarded by delay_difference, the first call made.
// xpuf-lint: guarded-by(delay_difference)
bool ArbiterPufDevice::evaluate(const Challenge& challenge, const Environment& env,
                                Rng& rng) const {
  const double delta = delay_difference(challenge, env);
  return delta + rng.normal(0.0, noise_sigma(env)) > 0.0;
}

linalg::Vector ArbiterPufDevice::reduced_weights(const Environment& env) const {
  // Standard reduction (Lim / Ruehrmair): with alpha_i = (d0_i - d1_i)/2 and
  // beta_i = (d0_i + d1_i)/2,
  //   w_1 = alpha_1, w_i = alpha_i + beta_{i-1} (i = 2..k), w_{k+1} = beta_k,
  // so that delta = w . phi with phi_i = prod_{j>=i} (1 - 2 c_j), phi_{k+1}=1.
  const double scale = env_model_.delay_scale(env);
  const double shift = env_model_.sensitivity_shift(env);
  const double aging = aging_level();
  const std::size_t k = stages();
  std::vector<double> alpha(k), beta(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double d0 = effective_straight(i, scale, shift, aging);
    const double d1 = effective_crossed(i, scale, shift, aging);
    alpha[i] = 0.5 * (d0 - d1);
    beta[i] = 0.5 * (d0 + d1);
  }
  linalg::Vector w(k + 1);
  w[0] = alpha[0];
  for (std::size_t i = 1; i < k; ++i) w[i] = alpha[i] + beta[i - 1];
  w[k] = beta[k - 1];
  return w;
}

DeviceLinearView ArbiterPufDevice::linear_view(const Environment& env) const {
  return {reduced_weights(env), noise_sigma(env)};
}

linalg::Vector ArbiterPufDevice::delay_differences(const FeatureBlock& block,
                                                   const Environment& env) const {
  return linear_view(env).delay_differences(block);
}

linalg::Vector ArbiterPufDevice::one_probabilities(const FeatureBlock& block,
                                                   const Environment& env) const {
  return linear_view(env).one_probabilities(block);
}

}  // namespace xpuf::sim
