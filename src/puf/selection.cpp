#include "puf/selection.hpp"

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "puf/screening.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf {

namespace {

/// Selection-cost accounting shared by both selector flavors — delegates to
/// the screening module, which owns the selection.* counters.
void record_selection(const SelectionResult& result) {
  record_screening(result.candidates_tried, result.challenges.size());
}

/// MeasurementBasedSelector's per-candidate stable-check/XOR-accumulate
/// measurement: measures the first n_pufs taps in order, stopping at the
/// first unstable one (so RNG consumption matches the historical early-exit
/// loop).
struct MeasuredCandidate {
  bool all_stable = true;
  bool xor_response = false;
};

MeasuredCandidate measure_candidate(const sim::XorPufChip& chip, const Challenge& c,
                                    const sim::Environment& env, std::uint64_t trials,
                                    std::size_t n_pufs, Rng& rng) {
  MeasuredCandidate out;
  for (std::size_t p = 0; p < n_pufs; ++p) {
    // The measurement-based baseline is inherently per-cell: each tap read
    // consumes shared-RNG draws and the early exit below depends on the
    // previous tap's outcome.  xpuf-lint: allow(scalar-eval)
    const sim::SoftMeasurement m = chip.measure_soft_response(p, c, env, trials, rng);
    if (!m.fully_stable()) {
      out.all_stable = false;
      break;
    }
    out.xor_response ^= m.ones == m.trials;
  }
  return out;
}

}  // namespace

ModelBasedSelector::ModelBasedSelector(const ServerModel& model, std::size_t n_pufs)
    : model_(&model), n_pufs_(n_pufs) {
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= model.puf_count(),
               "selector n_pufs out of range");
}

// Any (count, max_attempts) pair is legal — running out of attempts is the
// reported-not-thrown `filled == false` outcome the yield experiments probe.
// xpuf-lint: allow(require-guard)
SelectionResult ModelBasedSelector::select(std::size_t count, Rng& rng,
                                           std::size_t max_attempts) const {
  XPUF_TRACE_SPAN("selection.select");
  SelectionResult result;
  // The walk is keyed off ONE draw from the caller's stream: candidate j is
  // a pure function of (family, j), so block size and thread count are
  // invisible in the issued sequence AND in the caller's RNG consumption
  // (see puf/screening.hpp).
  const StreamFamily family(rng.fork_base());
  const ModelView view = ModelView::of(*model_);
  ChallengeScreener screener(view, n_pufs_);
  const ChallengeScreener::Outcome outcome =
      screener.screen(family, 0, count, max_attempts,
                      [&](std::span<const std::uint64_t> row, bool bit) {
                        sim::unpack_challenge_into(row, model_->stages(),
                                                   result.challenges.emplace_back());
                        result.expected_responses.push_back(bit);
                        return true;
                      });
  result.candidates_tried = outcome.tried;
  result.filled = outcome.filled;
  record_selection(result);
  return result;
}

MeasurementBasedSelector::MeasurementBasedSelector(const sim::XorPufChip& chip,
                                                   sim::Environment env,
                                                   std::uint64_t trials,
                                                   std::size_t n_pufs)
    : chip_(&chip), env_(env), trials_(trials), n_pufs_(n_pufs) {
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= chip.puf_count(), "selector n_pufs out of range");
  XPUF_REQUIRE(trials > 0, "measurement-based selection needs trials > 0");
}

// Any (count, max_attempts) pair is legal — see ModelBasedSelector::select.
// xpuf-lint: allow(require-guard)
SelectionResult MeasurementBasedSelector::select(std::size_t count, Rng& rng,
                                                 std::size_t max_attempts) const {
  XPUF_TRACE_SPAN("selection.measure_select");
  SelectionResult result;
  const std::size_t stages = chip_->stages();
  while (result.challenges.size() < count && result.candidates_tried < max_attempts) {
    Challenge c = random_challenge(stages, rng);
    ++result.candidates_tried;
    const MeasuredCandidate m = measure_candidate(*chip_, c, env_, trials_, n_pufs_, rng);
    if (m.all_stable) {
      result.challenges.push_back(std::move(c));
      result.expected_responses.push_back(m.xor_response);
    }
  }
  result.filled = result.challenges.size() >= count;
  record_selection(result);
  return result;
}

}  // namespace xpuf::puf
