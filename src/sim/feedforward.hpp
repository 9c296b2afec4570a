// Feed-forward MUX arbiter PUF device (the second structure covered by the
// paper's soft-response reference [1]).
//
// A feed-forward loop taps the race at an intermediate stage with an extra
// arbiter and feeds that bit into the select input of a later stage instead
// of a challenge bit. The response is no longer a linear function of the
// parity features — which is exactly why the structure is interesting as an
// extension: the linear enrollment of the main scheme degrades on it, and
// the intermediate arbiters add their own thermal noise (lower stability).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/chip.hpp"

namespace xpuf::sim {

/// One feed-forward loop: the race sign after `tap_stage` drives the select
/// of `target_stage` (challenge bit at target_stage is ignored).
struct FeedForwardLoop {
  std::size_t tap_stage = 0;
  std::size_t target_stage = 0;
};

class FeedForwardArbiterDevice {
 public:
  /// Stage delays are drawn exactly like the linear device's; loops must
  /// satisfy tap_stage < target_stage < stages and have distinct targets.
  FeedForwardArbiterDevice(const DeviceParameters& params,
                           const EnvironmentModel& env_model,
                           std::vector<FeedForwardLoop> loops, Rng& rng);

  std::size_t stages() const { return stage_delays_.size(); }
  const std::vector<FeedForwardLoop>& loops() const { return loops_; }

  /// Noise-free race through the structure; intermediate arbiters decide on
  /// the sign of the accumulated difference (no thermal noise).
  double delay_difference(const Challenge& challenge, const Environment& env) const;

  /// One noisy evaluation: thermal noise is drawn at every intermediate
  /// arbiter and at the final arbiter, so feed-forward loops both flip
  /// select bits and propagate instability (the structure's known weakness).
  bool evaluate(const Challenge& challenge, const Environment& env, Rng& rng) const;

  /// Counter statistic over `trials` noisy evaluations.
  SoftMeasurement measure_soft_response(const Challenge& challenge,
                                        const Environment& env, std::uint64_t trials,
                                        Rng& rng) const;

 private:
  DeviceParameters params_;
  EnvironmentModel env_model_;
  std::vector<StageDelays> stage_delays_;
  std::vector<FeedForwardLoop> loops_;

  double race(const Challenge& challenge, const Environment& env, Rng* noise_rng) const;
};

}  // namespace xpuf::sim
