// A simulated XOR arbiter PUF test chip (paper Fig 5).
//
// The chip carries n parallel arbiter PUFs fed the same challenge. The XOR
// of all n responses is always pinned out; each individual PUF's response is
// additionally tapped through a one-time fuse so an authorized tester can
// collect per-PUF soft responses during enrollment. Burning the fuses
// (blow_fuses) puts the chip in its deployed state where only the XOR output
// is observable — the access model the paper's security argument relies on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/device.hpp"
#include "sim/fuse.hpp"
#include "sim/linear.hpp"

namespace xpuf::sim {

/// Soft-response measurement from an on-chip counter: `ones` of `trials`
/// evaluations returned 1.
struct SoftMeasurement {
  std::uint64_t ones = 0;
  std::uint64_t trials = 0;

  double soft_response() const {
    return trials == 0 ? 0.0 : static_cast<double>(ones) / static_cast<double>(trials);
  }
  /// 100% stable means every evaluation agreed (first/last histogram bin).
  bool fully_stable() const { return trials > 0 && (ones == 0 || ones == trials); }
};

class XorPufChip {
 public:
  /// Fabricates a chip with `n_pufs` devices drawn from the same process.
  XorPufChip(std::size_t chip_id, std::size_t n_pufs, const DeviceParameters& params,
             const EnvironmentModel& env_model, Rng& rng);

  std::size_t id() const { return chip_id_; }
  std::size_t puf_count() const { return devices_.size(); }
  std::size_t stages() const { return devices_.front().stages(); }

  /// One noisy evaluation of the XOR output (always accessible).
  bool xor_response(const Challenge& challenge, const Environment& env, Rng& rng) const;

  /// One noisy XOR evaluation per packed challenge row — `rows` holds
  /// back-to-back rows of packed_words(stages) words, stage bit i in bit
  /// i % 64 of word i / 64 — written to `out` (resized to the row count,
  /// 0/1 per row; no rows, no responses). Always accessible. Bit-identical
  /// to calling xor_response on each unpacked row in turn, and it leaves
  /// `rng` in the same state:
  ///
  /// the call snapshots every device's effective (straight, crossed) stage
  /// delays once, at `env` and the current aging level, then races the n
  /// devices in lockstep, stage by stage, each chain doing delay_difference's
  /// IEEE operations in its order (race_stage) with the stage bit read
  /// straight from the row; the n noise samples follow in device order, as
  /// xor_response draws them. The snapshot lives for one call only, so it
  /// can never go stale across age().
  void xor_responses(std::span<const std::uint64_t> rows, std::size_t stages,
                     const Environment& env, Rng& rng, std::vector<std::uint8_t>& out) const;

  /// One noisy evaluation of an individual PUF. Throws AccessError once the
  /// corresponding fuse is blown.
  bool individual_response(std::size_t puf_index, const Challenge& challenge,
                           const Environment& env, Rng& rng) const;

  /// Counter-based soft-response measurement of one individual PUF over
  /// `trials` repeated evaluations. Throws AccessError after fuse blow.
  /// The flip count is sampled from the exact Binomial(trials, p) law of the
  /// device, so "0 flips in 100,000" has the true silicon probability.
  SoftMeasurement measure_soft_response(std::size_t puf_index, const Challenge& challenge,
                                        const Environment& env, std::uint64_t trials,
                                        Rng& rng) const;

  /// Counter-based soft response of the XOR output (always accessible; used
  /// by the marginal-response salvage discussion in paper Sec 2.2).
  SoftMeasurement measure_xor_soft_response(const Challenge& challenge,
                                            const Environment& env, std::uint64_t trials,
                                            Rng& rng) const;

  /// Linear-view snapshot of the first `n_pufs` devices at a corner — the
  /// entry point of the batched evaluation core (sim/linear.hpp). Gated by
  /// the same fuse model as per-PUF measurements: throws AccessError when
  /// any of those taps is blown, because the view carries exactly the
  /// information unlimited tap measurements would reveal. Snapshots do not
  /// track later age() calls; rebuild after aging.
  ChipLinearView linear_view(const Environment& env, std::size_t n_pufs) const;
  ChipLinearView linear_view(const Environment& env) const {
    return linear_view(env, puf_count());
  }

  /// Batched per-PUF flip probabilities: challenges.size() x puf_count(),
  /// from the linear view's parity tiles — cell (c, p) is exactly
  /// normal_cdf(delay / sigma) of PUF p on challenge c. Tap-gated like
  /// measure_soft_response. Runs on the global thread pool; bit-identical
  /// at any thread count.
  linalg::Matrix one_probabilities(const std::vector<Challenge>& challenges,
                                   const Environment& env) const;

  /// Whether the per-PUF tap is still readable.
  // Test hook: test_chip checks the fuse-guarded taps.  xpuf-lint: allow(orphan-symbol)
  bool tap_accessible(std::size_t puf_index) const;

  /// Burns all enrollment fuses (pre-deployment step, paper Fig 6).
  void blow_fuses();

  /// Ages every on-chip device by `stress_hours` of operation (BTI drift;
  /// see ArbiterPufDevice::age). Aging is physical and irreversible.
  void age(double stress_hours);

  /// Stress accumulated by the chip's devices.
  double stress_hours() const;

  // Test hook: test_chip and test_integration check the deployed
  // state.  xpuf-lint: allow(orphan-symbol)
  bool deployed() const { return fuses_.all_blown(); }

  /// Ground-truth device access for tests, calibration, and analysis only.
  /// Protocol code must not call this — it bypasses the fuse model.
  const ArbiterPufDevice& device_for_analysis(std::size_t puf_index) const;

 private:
  std::size_t chip_id_;
  std::vector<ArbiterPufDevice> devices_;
  mutable FuseBank fuses_;  // mutable: blow is a physical, not logical, mutation

  void check_tap(std::size_t puf_index) const;
};

}  // namespace xpuf::sim
