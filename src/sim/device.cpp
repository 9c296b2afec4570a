#include "sim/device.hpp"

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

ArbiterPufDevice::Corner ArbiterPufDevice::corner(const Environment& env) const {
  return {env_model_.delay_scale(env), env_model_.sensitivity_shift(env), aging_level()};
}

// Stage index is proven in-range by every caller's loop bound; this is the
// innermost hot loop.  xpuf-lint: allow(require-guard)
void ArbiterPufDevice::effective_stage(std::size_t i, const Corner& c, double* pair) const {
  const StageDelays& s = stage_delays_[i];
  pair[0] = s.straight * c.scale + s.straight_sensitivity * c.shift + s.straight_aging * c.aging;
  pair[1] = s.crossed * c.scale + s.crossed_sensitivity * c.shift + s.crossed_aging * c.aging;
}

double ArbiterPufDevice::delay_difference(const Challenge& challenge,
                                          const Environment& env) const {
  XPUF_REQUIRE(challenge.size() == stages(), "challenge length != stage count");
  const Corner c = corner(env);
  // Recursive race (race_stage): the bit selects both the negation and the
  // stage's straight/crossed delay, not a branch, so each stage is one add —
  // the same IEEE operations as `delta += straight` /
  // `delta = -delta + crossed`.
  double delta = 0.0;
  for (std::size_t i = 0; i < challenge.size(); ++i) {
    const std::uint64_t crossed = challenge[i] != 0;
    double pair[2];
    effective_stage(i, c, pair);
    delta = race_stage(delta, crossed, pair[crossed]);
  }
  return delta;
}

void ArbiterPufDevice::effective_stage_delays(const Environment& env,
                                              std::span<double> out) const {
  XPUF_REQUIRE(out.size() == 2 * stages(), "effective delays need 2 * stages doubles");
  const Corner c = corner(env);
  for (std::size_t i = 0; i < stages(); ++i) effective_stage(i, c, out.data() + 2 * i);
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
  const Corner c = corner(env);
  const std::size_t k = stages();
  std::vector<double> alpha(k), beta(k);
  for (std::size_t i = 0; i < k; ++i) {
    double d[2];
    effective_stage(i, c, d);
    alpha[i] = 0.5 * (d[0] - d[1]);
    beta[i] = 0.5 * (d[0] + d[1]);
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

}  // namespace xpuf::sim
