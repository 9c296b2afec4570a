// Stage-level MUX arbiter PUF device simulation.
//
// This is the "silicon": each of the k delay stages carries a straight and a
// crossed top-minus-bottom delay difference drawn from process variation,
// plus a per-stage environmental sensitivity. Evaluation walks the stages
// recursively — the same signal-propagation structure as the physical race —
// and the arbiter compares the final delay difference against thermal noise.
//
// The device deliberately does NOT use the reduced linear form w . phi for
// evaluation; the attacker/server models in src/puf do. A property test
// proves the recursive walk equals the reduced form, mirroring the
// silicon-validated equivalence the paper's modeling rests on.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/vector.hpp"
#include "sim/environment.hpp"

namespace xpuf::sim {

// Defined in sim/linear.hpp, which includes this header; the device only
// names it in linear_view's signature.
struct DeviceLinearView;

/// Challenge bits, one per stage, c_i in {0, 1}. 0 = straight, 1 = crossed.
using Challenge = std::vector<std::uint8_t>;

/// Draws a uniformly random challenge of the given length: stage i is the
/// i-th bernoulli() draw.
Challenge random_challenge(std::size_t stages, Rng& rng);

/// One stage of the race: a crossed stage (`crossed` = 1) swaps the two
/// signal paths, negating the accumulated top-minus-bottom difference — a
/// sign-bit flip — before its own delay is added; a straight stage adds its
/// delay to the difference as it is. `stage_delay` is the stage's effective
/// straight or crossed delay, as the bit selects. The race step of
/// ArbiterPufDevice::delay_difference; XorPufChip's vector race performs
/// the same IEEE operations in each lane (a sign-mask XOR, then one add).
inline double race_stage(double delta, std::uint64_t crossed, double stage_delay) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(delta) ^ (crossed << 63)) +
         stage_delay;
}

/// Per-stage process parameters: top-minus-bottom delay differences added by
/// the stage for each select value, and the matching V/T sensitivities.
struct StageDelays {
  double straight = 0.0;        ///< delta when the select bit is 0
  double crossed = 0.0;         ///< delta when the select bit is 1
  double straight_sensitivity = 0.0;  ///< kappa multiplying the env shift
  double crossed_sensitivity = 0.0;
  double straight_aging = 0.0;  ///< eta multiplying the aging drift level
  double crossed_aging = 0.0;
};

/// Process/noise parameters for one device.
struct DeviceParameters {
  std::size_t stages = 32;        ///< the paper's chips have 32 MUX stages
  double sigma_process = 1.0;     ///< per-stage delay-difference sigma
  double sigma_sensitivity = 0.5; ///< per-stage kappa sigma
  /// Nominal arbiter thermal-noise sigma. The default places the
  /// delay-to-noise ratio at sqrt(stages)/0.327 ~ 17.3 for 32 stages, which
  /// calibrates the fraction of 100%-stable challenges (at K = 100,000
  /// evaluations) to the paper's measured ~80% (Fig 2/3).
  double sigma_noise = 0.327;
  /// Per-stage BTI aging-drift direction sigma; the drift magnitude follows
  /// the classic power law sigma_aging * (t / 1000 h)^aging_exponent, so a
  /// device accumulates a persistent, device-specific delay shift over its
  /// lifetime (the aging concern the paper lists alongside V/T, Sec 1).
  double sigma_aging = 0.25;
  double aging_exponent = 0.2;
};

class ArbiterPufDevice {
 public:
  /// Fabricates a device: draws all stage parameters from the RNG.
  ArbiterPufDevice(const DeviceParameters& params, const EnvironmentModel& env_model,
                   Rng& rng);

  std::size_t stages() const { return stage_delays_.size(); }

  /// Noise-free total delay difference at the arbiter for a challenge,
  /// computed by the recursive stage walk under the given environment.
  double delay_difference(const Challenge& challenge, const Environment& env) const;

  /// Probability the arbiter outputs 1 for this challenge at this corner:
  /// Phi(delta / sigma_noise(env)). This is what an infinite-trial counter
  /// would converge to, and what the exact binomial counter samples from.
  double one_probability(const Challenge& challenge, const Environment& env) const;

  /// One noisy evaluation: delta plus a fresh thermal-noise draw, arbitrated.
  bool evaluate(const Challenge& challenge, const Environment& env, Rng& rng) const;

  /// Thermal-noise sigma at a corner.
  double noise_sigma(const Environment& env) const;

  /// The effective stage delays delay_difference races through at a corner
  /// and the current aging level: out[2 i] is stage i's straight delay,
  /// out[2 i + 1] its crossed one; `out` holds 2 * stages() doubles. A
  /// snapshot — it does not track later age() calls.
  void effective_stage_delays(const Environment& env, std::span<double> out) const;

  /// Accumulates BTI-style stress: the device's delay differences drift by
  /// eta_i * sigma_aging * (t_total / 1000 h)^aging_exponent where the
  /// per-stage directions eta were fixed at fabrication. Irreversible.
  void age(double stress_hours);

  /// Total stress accumulated so far.
  double stress_hours() const { return stress_hours_; }

  /// Ground-truth reduced additive-model weights at a corner (length
  /// stages + 1). Exposed for tests and analysis only — the authentication
  /// protocol never reads this; it must *learn* the weights from soft
  /// responses like the paper's server does.
  linalg::Vector reduced_weights(const Environment& env) const;

  /// Linear-view snapshot at a corner: reduced weights + noise sigma with
  /// the environment scale/shift and aging level baked in once, so batch
  /// evaluation never re-derives them per challenge. The snapshot does not
  /// track later age() calls — rebuild after aging. Same access contract as
  /// reduced_weights (tests/analysis/batch core, not protocol code).
  DeviceLinearView linear_view(const Environment& env) const;

 private:
  DeviceParameters params_;
  EnvironmentModel env_model_;
  std::vector<StageDelays> stage_delays_;
  double stress_hours_ = 0.0;

  /// What a corner does to every stage: the delay scale, the sensitivity
  /// shift and the aging drift level.
  struct Corner {
    double scale;
    double shift;
    double aging;
  };
  Corner corner(const Environment& env) const;

  /// Current aging drift level (multiplies the per-stage eta directions).
  double aging_level() const;

  /// Stage i's effective (straight, crossed) delays at a corner — the single
  /// formula behind delay_difference, effective_stage_delays and
  /// reduced_weights.
  void effective_stage(std::size_t i, const Corner& c, double* pair) const;
};

}  // namespace xpuf::sim
