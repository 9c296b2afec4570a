#include "puf/screening.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace xpuf::puf {

// Pure accounting: every (tried, accepted) pair is legal, including zeros.
// xpuf-lint: allow(require-guard)
void record_screening(std::size_t tried, std::size_t accepted) {
  auto& registry = MetricsRegistry::global();
  static Counter& tried_counter = registry.counter("selection.candidates_tried");
  static Counter& accepted_counter = registry.counter("selection.accepted");
  static Histogram& per_batch = registry.histogram(
      "selection.batch_candidates", {10.0, 100.0, 1'000.0, 10'000.0, 100'000.0, 1'000'000.0});
  tried_counter.add(tried);
  accepted_counter.add(accepted);
  per_batch.observe(static_cast<double>(tried));
}

ChallengeScreener::ChallengeScreener(const ModelView& view, std::size_t n_pufs,
                                     ScreeningOptions options)
    : view_(&view), n_pufs_(n_pufs), options_(options) {
  XPUF_REQUIRE(!view.empty(), "screener needs a non-empty model view");
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= view.puf_count(), "screener n_pufs out of range");
  XPUF_REQUIRE(options.block >= 1, "screening block must hold at least one candidate");
  thresholds_.reserve(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) thresholds_.push_back(view.adjusted_thresholds(p));
}

void ChallengeScreener::candidate_into(std::span<std::uint64_t> row, std::size_t stages,
                                       Rng& rng) {
  XPUF_REQUIRE(stages >= 1, "a challenge needs at least one stage");
  XPUF_REQUIRE(row.size() == sim::packed_words(stages),
               "candidate row needs packed_words(stages) words");
  for (std::uint64_t& w : row) w = rng.next_u64();
  // Canonical: the draw's bits above `stages` never reach a ledger key.
  row.back() &= ~0ULL >> (64 * row.size() - stages);
}

ChallengeScreener::Outcome ChallengeScreener::screen(const StreamFamily& family,
                                                     std::uint64_t first_index,
                                                     std::size_t count,
                                                     std::size_t max_attempts,
                                                     const Sink& sink) {
  XPUF_REQUIRE(count >= 1, "screening quota must be positive");
  XPUF_REQUIRE(sink != nullptr, "screening needs a sink");
  Outcome out = options_.batched
                    ? screen_batched(family, first_index, count, max_attempts, sink)
                    : screen_serial(family, first_index, count, max_attempts, sink);
  out.next_index = first_index + out.tried;
  return out;
}

// The reference walk the batched mode is bit-identical to: one candidate at
// a time, one feature row, n ascending dots. Kept deliberately scalar as the
// oracle for the A/B bench and the equivalence suite. Params are validated
// by screen().  xpuf-lint: guarded-by(candidate_into)
ChallengeScreener::Outcome ChallengeScreener::screen_serial(
    const StreamFamily& family, std::uint64_t first_index, std::size_t count,
    std::size_t max_attempts, const Sink& sink) {
  Outcome out;
  const std::size_t stages = view_->stages();
  const std::size_t features = stages + 1;
  std::vector<double> phi(features);
  std::vector<double> raw(n_pufs_);
  std::vector<std::uint64_t> row(sim::packed_words(stages));
  Challenge candidate;
  while (out.accepted < count && out.tried < max_attempts) {
    Rng rng = family.stream(first_index + out.tried);
    candidate_into(row, stages, rng);
    sim::unpack_challenge_into(row, stages, candidate);
    ++out.tried;
    sim::feature_fill(candidate, phi.data());
    bool stable = true;
    for (std::size_t p = 0; p < n_pufs_ && stable; ++p) {
      const std::span<const double> w = view_->weights(p);
      double acc = 0.0;
      for (std::size_t k = 0; k < features; ++k) acc += phi[k] * w[k];
      raw[p] = acc;
      stable = thresholds_[p].classify(acc) != StableClass::kUnstable;
    }
    if (!stable) continue;
    // The early-exit above never fires for a stable candidate, so every
    // raw[p] is populated here.
    ++out.stable;
    bool bit = false;
    for (std::size_t p = 0; p < n_pufs_; ++p) bit ^= raw[p] > 0.5;
    if (sink(row, bit)) ++out.accepted;
  }
  out.filled = out.accepted >= count;
  return out;
}

// Params are validated by screen().  xpuf-lint: guarded-by(parity_dots)
ChallengeScreener::Outcome ChallengeScreener::screen_batched(
    const StreamFamily& family, std::uint64_t first_index, std::size_t count,
    std::size_t max_attempts, const Sink& sink) {
  Outcome out;
  const std::size_t stages = view_->stages();
  const std::size_t n_words = sim::packed_words(stages);
  // Geometric block ramp: start near the expected candidate demand of a
  // small quota, grow toward options_.block. Purely a cost knob — candidate
  // j's bits depend only on its stream index, so the block partition is
  // invisible in the issued sequence.
  std::size_t ramp = std::min(options_.block, std::max<std::size_t>(8, 2 * count));
  while (out.accepted < count && out.tried < max_attempts) {
    const std::size_t want = std::min(ramp, max_attempts - out.tried);
    ramp = std::min(options_.block, ramp * 2);
    // Candidates stay packed: the serial walk's rows, plus their
    // suffix-parity form, from which every Phi sign is read.
    words_.resize(want * n_words);
    for (std::size_t i = 0; i < want; ++i) {
      Rng rng = family.stream(first_index + out.tried + i);
      candidate_into({words_.data() + i * n_words, n_words}, stages, rng);
    }
    parity_.resize(words_.size());
    sim::suffix_parity_words(words_, stages, parity_);
    // The cascade: PUF p is evaluated only on the rows still stable on PUFs
    // 0 .. p-1. Each delay is the serial walk's ascending dot (sim/linear
    // contract), and compaction keeps the survivors in index order.
    survivors_.resize(want);
    for (std::size_t i = 0; i < want; ++i) survivors_[i] = i;
    bits_.assign(want, 0);
    for (std::size_t p = 0; p < n_pufs_ && !survivors_.empty(); ++p) {
      delays_.resize(survivors_.size());
      sim::parity_dots(view_->weights(p), parity_, survivors_, delays_);
      const ThresholdPair& t = thresholds_[p];
      std::size_t kept = 0;
      for (std::size_t k = 0; k < survivors_.size(); ++k) {
        const std::size_t row = survivors_[k];
        const double x = delays_[k];
        bits_[row] ^= static_cast<std::uint8_t>(x > 0.5);
        survivors_[kept] = row;
        kept += static_cast<std::size_t>(!t.unstable(x));
      }
      survivors_.resize(kept);
    }
    // Rows the cascade dropped count as tried; the walk stops right after
    // the candidate that fills the quota, exactly where the serial walk does.
    std::size_t walked = want;
    for (const std::size_t row : survivors_) {
      if (out.accepted >= count) break;
      walked = row + 1;
      ++out.stable;
      if (sink({words_.data() + row * n_words, n_words}, bits_[row] != 0)) ++out.accepted;
    }
    out.tried += out.accepted >= count ? walked : want;
  }
  out.filled = out.accepted >= count;
  return out;
}

}  // namespace xpuf::puf
