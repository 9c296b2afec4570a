#include "puf/screening.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"

namespace xpuf::puf {

namespace {

/// Rows per parallel_for chunk when evaluating a block tile. Chunking is
/// bit-invisible (each output cell is an independent ascending dot), so this
/// only balances scheduling overhead against load spread.
constexpr std::size_t kEvalRowChunk = 64;

/// Candidate layout shared by both walks: word w (the stream's w-th
/// next_u64() draw) holds stages 64w .. 64w + 63, least-significant bit
/// first. Writes the stages of word w into an already-sized `out`.
void unpack_word(Challenge& out, std::size_t w, std::uint64_t word) {
  const std::size_t base = w * 64;
  const std::size_t bits = std::min<std::size_t>(64, out.size() - base);
  for (std::size_t j = 0; j < bits; ++j)
    out[base + j] = static_cast<std::uint8_t>((word >> j) & 1U);
}

}  // namespace

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
  std::vector<sim::DeviceLinearView> devices;
  devices.reserve(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    thresholds_.push_back(view.adjusted_thresholds(p));
    const std::span<const double> w = view.weights(p);
    // sigma is irrelevant here: screening consumes only the raw linear
    // product (delay_differences), never the noise CDF.
    devices.push_back(sim::DeviceLinearView{
        linalg::Vector(std::vector<double>(w.begin(), w.end())), 1.0});
  }
  chip_view_ = sim::ChipLinearView(std::move(devices));
}

void ChallengeScreener::candidate_into(Challenge& out, std::size_t stages, Rng& rng) {
  XPUF_REQUIRE(stages >= 1, "a challenge needs at least one stage");
  out.resize(stages);
  for (std::size_t w = 0; w < sim::packed_words(stages); ++w)
    unpack_word(out, w, rng.next_u64());
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
  Challenge candidate;
  while (out.accepted < count && out.tried < max_attempts) {
    Rng rng = family.stream(first_index + out.tried);
    candidate_into(candidate, stages, rng);
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
    if (sink(std::move(candidate), bit)) ++out.accepted;
  }
  out.filled = out.accepted >= count;
  return out;
}

// Params are validated by screen().  xpuf-lint: guarded-by(assign_packed)
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
  Challenge candidate;
  while (out.accepted < count && out.tried < max_attempts) {
    const std::size_t want = std::min(ramp, max_attempts - out.tried);
    ramp = std::min(options_.block, ramp * 2);
    // Candidates stay packed: the same words candidate_into unpacks, and
    // Phi straight from them. Only a stable row becomes a Challenge.
    words_.resize(want * n_words);
    for (std::size_t i = 0; i < want; ++i) {
      Rng rng = family.stream(first_index + out.tried + i);
      for (std::size_t w = 0; w < n_words; ++w) words_[i * n_words + w] = rng.next_u64();
    }
    block_.assign_packed(words_, want, stages);
    raw_.resize(want * n_pufs_);
    // One register-blocked weight product per tile; each output cell is the
    // same ascending-index dot as the serial walk (sim/linear contract).
    parallel_for(want, kEvalRowChunk,
                 [&](std::size_t begin, std::size_t end, std::size_t) {
                   chip_view_.delay_differences_into(block_, begin, end,
                                                     raw_.data() + begin * n_pufs_);
                 });
    for (std::size_t i = 0; i < want && out.accepted < count; ++i) {
      ++out.tried;
      const double* row = raw_.data() + i * n_pufs_;
      // One mask over all n PUFs: no early exit, no data-dependent branch
      // until the verdict.
      bool unstable = false;
      for (std::size_t p = 0; p < n_pufs_; ++p) unstable |= thresholds_[p].unstable(row[p]);
      if (unstable) continue;
      ++out.stable;
      bool bit = false;
      for (std::size_t p = 0; p < n_pufs_; ++p) bit ^= row[p] > 0.5;
      candidate.resize(stages);
      for (std::size_t w = 0; w < n_words; ++w)
        unpack_word(candidate, w, words_[i * n_words + w]);
      if (sink(std::move(candidate), bit)) ++out.accepted;
    }
  }
  out.filled = out.accepted >= count;
  return out;
}

}  // namespace xpuf::puf
