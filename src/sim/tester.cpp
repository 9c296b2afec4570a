#include "sim/tester.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace xpuf::sim {

namespace {
// Challenges per parallel chunk. Fixed (never derived from the thread
// count) so the chunk grid — and therefore every RNG stream assignment —
// is identical for any pool size.
constexpr std::size_t kScanChunk = 64;

// soft_response() is ones / trials; with trials fixed the quotient takes only
// trials + 1 distinct values, so precompute them once (same division, hence
// the same bits). Guarded so a pathological trial count cannot demand a giant
// table; an empty result means "divide per cell".
constexpr std::uint64_t kSoftLutMax = 1u << 20;

std::vector<double> build_soft_lut(std::uint64_t trials) {
  std::vector<double> lut;
  if (trials <= kSoftLutMax) {
    lut.resize(trials + 1);
    for (std::uint64_t k = 0; k <= trials; ++k)
      lut[k] = static_cast<double>(k) / static_cast<double>(trials);
  }
  return lut;
}

double soft_of(const std::vector<double>& lut, std::uint64_t ones, std::uint64_t trials) {
  return lut.empty() ? static_cast<double>(ones) / static_cast<double>(trials) : lut[ones];
}

/// The count kernel both individual scans share: the counts of
/// tile rows [begin, end) from the tile's standardized delays `z`
/// ((end - begin) x n_pufs, row-major), cell (p, c) drawing from stream
/// p * key_stride + key_offset + c. One LazyCdfCounter row pass per PUF;
/// `emit(p, c, ones)` stores each count.
template <class Emit>
void count_tile(const LazyCdfCounter& counter, const StreamFamily& streams, const double* z,
                std::size_t n_pufs, std::size_t begin, std::size_t end,
                std::uint64_t key_stride, std::uint64_t key_offset, Emit&& emit) {
  thread_local std::vector<std::uint64_t> counts;
  counts.resize(end - begin);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    counter.count_row(z + p, n_pufs, end - begin, streams, p * key_stride + key_offset + begin,
                      counts.data());
    for (std::size_t c = begin; c < end; ++c) emit(p, c, counts[c - begin]);
  }
}

/// Inverts suffix_parity_words: stage bit i is parity bit i XOR parity bit
/// i + 1, the next word's bit 0 standing in above bit 63 and a zero above
/// the last stage (suffix_parity_words clears the bits past `stages`).
void words_from_suffix_parity(std::span<const std::uint64_t> parity, std::size_t n_words,
                              std::span<std::uint64_t> words) {
  for (std::size_t r = 0; r < parity.size(); r += n_words) {
    for (std::size_t w = 0; w < n_words; ++w) {
      const std::uint64_t above = w + 1 < n_words ? parity[r + w + 1] << 63 : 0;
      words[r + w] = parity[r + w] ^ (parity[r + w] >> 1) ^ above;
    }
  }
}
}  // namespace

ChipTester::ChipTester(Environment env, std::uint64_t trials, Rng rng)
    : env_(env), trials_(trials), rng_(rng) {
  XPUF_REQUIRE(trials > 0, "ChipTester needs at least one trial per challenge");
}

// Any count is legal (an empty scan is a no-op); the stage count is guarded
// inside random_challenges.
std::vector<Challenge> ChipTester::random_challenges(const XorPufChip& chip,
                                                     std::size_t count) {
  return sim::random_challenges(chip.stages(), count, rng_);
}

// Lengths are checked by challenge_parity, taps by linear_view.
// xpuf-lint: guarded-by(challenge_parity)
ChipSoftScan ChipTester::scan_individual(const XorPufChip& chip,
                                         const std::vector<Challenge>& challenges) {
  XPUF_TRACE_SPAN("tester.scan_individual");
  const std::size_t n_pufs = chip.puf_count();
  const std::size_t n_ch = challenges.size();
  const std::vector<std::uint64_t> parity = challenge_parity(challenges, chip.stages());
  ChipSoftScan scan;
  scan.challenges = challenges;
  scan.trials = trials_;
  scan.environment = env_;
  scan.soft.assign(n_pufs, std::vector<double>(n_ch));
  scan.stable.resize(n_pufs);

  // Materializing the linear view also performs the per-tap access check a
  // deployed chip must fail (an empty scan is a no-op and checks nothing).
  ChipLinearView view;
  if (n_ch > 0) view = chip.linear_view(env_);
  const std::vector<double> soft_lut = build_soft_lut(trials_);
  const LazyCdfCounter counter(trials_);

  // One base draw keys every (puf, challenge) cell's private stream; each
  // cell's measurement noise is a pure function of (base, cell index).
  const StreamFamily streams(rng_.fork_base());
  // vector<bool> packs bits, so adjacent cells share words — stage stability
  // flags in a byte buffer and commit serially after the parallel loop.
  std::vector<std::vector<std::uint8_t>> stable_bytes(
      n_pufs, std::vector<std::uint8_t>(n_ch, 0));
  // Sharded counter: each worker hits its own cache line, so recording from
  // inside the parallel body is contention-free and the merged total is a
  // pure function of the workload (never of the thread count). One add per
  // chunk keeps even that off the per-cell path.
  static Counter& measurements =
      MetricsRegistry::global().counter("tester.measurements");
  parallel_for(n_ch, kScanChunk,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 // One parity tile of standardized delays for the whole
                 // chunk, then per-cell counts from the cells' own streams.
                 // thread_local staging: one buffer per worker for the whole
                 // scan instead of one allocation per chunk.
                 thread_local std::vector<double> z;
                 z.resize((end - begin) * n_pufs);
                 view.standardized_delays_into(parity, begin, end, z.data());
                 count_tile(counter, streams, z.data(), n_pufs, begin, end, n_ch, 0,
                            [&](std::size_t p, std::size_t c, std::uint64_t ones) {
                              scan.soft[p][c] = soft_of(soft_lut, ones, trials_);
                              stable_bytes[p][c] = (ones == 0 || ones == trials_) ? 1 : 0;
                            });
                 measurements.add((end - begin) * n_pufs);
               });
  for (std::size_t p = 0; p < n_pufs; ++p)
    scan.stable[p].assign(stable_bytes[p].begin(), stable_bytes[p].end());
  return scan;
}

ChipScanStream::ChipScanStream(const XorPufChip& chip, const Environment& env,
                               std::uint64_t trials, std::size_t total, std::size_t chunk,
                               Rng& tester_rng)
    : chip_(&chip),
      env_(env),
      trials_(trials),
      total_(total),
      chunk_(chunk),
      counter_(trials),
      soft_lut_(build_soft_lut(trials)) {
  XPUF_REQUIRE(chunk >= 1, "scan stream needs a chunk size of at least one");
  const std::size_t stages = chip.stages();
  const std::size_t n_pufs = chip.puf_count();
  const std::size_t n_words = packed_words(stages);
  // The kept prefix: every whole chunk whose end stays within the byte
  // budget (kept chunks lie on the chunk grid), or the whole scan if it fits.
  // Counts past 16 bits are never kept.
  const std::size_t bytes_per_challenge = n_words * sizeof(std::uint64_t) +
                                          n_pufs * sizeof(std::uint16_t);
  const std::size_t fit = kRetainBytes / bytes_per_challenge;
  if (trials <= std::numeric_limits<std::uint16_t>::max())
    retained_ = total <= fit ? total : fit / chunk * chunk;
  // Pre-roll: draw exactly what the materialized path's challenge
  // generation would consume (one u64 per challenge bit), so the base draw
  // below lands on the same state scan_individual's fork_base() would see —
  // and the tester continues from the same state afterwards. The kept
  // prefix's challenges are drawn once, here, into the kept parity buffer;
  // the rest are skipped and drawn again chunk by chunk from the saved
  // generator copy.
  retained_parity_.resize(retained_ * n_words);
  for (std::size_t i = 0; i < retained_; ++i)
    random_packed_challenge_into({retained_parity_.data() + i * n_words, n_words}, stages,
                                 tester_rng);
  // Rows convert in place: each word is read before its own slot is written.
  suffix_parity_words(retained_parity_, stages, retained_parity_);
  retained_counts_.reserve(retained_ * n_pufs);
  challenge_rng_ = tester_rng;
  challenge_rng_resume_ = tester_rng;
  for (std::size_t i = retained_ * stages; i < total * stages; ++i) tester_rng.next_u64();
  base_ = tester_rng.fork_base();
  // Materializing the linear view also performs the per-tap access check a
  // deployed chip must fail — at stream construction, not first use.
  view_ = chip.linear_view(env_);
}

void ChipScanStream::reset() {
  challenge_rng_ = challenge_rng_resume_;
  position_ = 0;
}

// Exhaustion is the normal return path, not an error.
bool ChipScanStream::next(ScanChunk& chunk) {
  if (position_ >= total_) return false;
  XPUF_TRACE_SPAN("tester.scan_stream_chunk");
  const std::size_t begin_global = position_;
  const std::size_t m = std::min(chunk_, total_ - position_);
  const std::size_t stages = chip_->stages();
  const std::size_t n_pufs = chip_->puf_count();
  const std::size_t n_words = packed_words(stages);
  chunk.offset = begin_global;
  chunk.stages = stages;
  chunk.words.resize(m * n_words);
  chunk.parity.resize(m * n_words);
  chunk.soft.resize(n_pufs);
  for (auto& row : chunk.soft) row.resize(m);

  // Kept chunks lie on the same chunk grid, so this chunk is kept whole or
  // not at all. A kept chunk's challenges come from the parity drawn at
  // construction, and its soft responses from its first measurement.
  const bool kept = begin_global < retained_;
  if (kept) {
    std::copy_n(retained_parity_.data() + begin_global * n_words, m * n_words,
                chunk.parity.data());
    words_from_suffix_parity(chunk.parity, n_words, chunk.words);
    if (begin_global < counted_) {
      const std::uint16_t* counts = retained_counts_.data() + begin_global * n_pufs;
      for (std::size_t p = 0; p < n_pufs; ++p) {
        for (std::size_t c = 0; c < m; ++c) chunk.soft[p][c] = soft_lut_[counts[p * m + c]];
      }
      position_ += m;
      return true;
    }
  } else {
    // Draw this chunk's challenges from the saved generator copy, packed:
    // the draw sequence is the materialized path's, just consumed lazily
    // and written straight into the words.
    for (std::size_t i = 0; i < m; ++i)
      random_packed_challenge_into({chunk.words.data() + i * n_words, n_words}, stages,
                                   challenge_rng_);
    suffix_parity_words(chunk.words, stages, chunk.parity);
  }

  // A kept chunk measured for the first time keeps its counts. Chunks are
  // served in order from the first, so it extends the counted prefix.
  std::uint16_t* counts = nullptr;
  if (kept) {
    retained_counts_.resize((begin_global + m) * n_pufs);
    counts = retained_counts_.data() + begin_global * n_pufs;
  }
  // Stores one cell's count from the parallel workers below.
  auto emit = [&](std::size_t p, std::size_t c, std::uint64_t ones) {
    chunk.soft[p][c] = soft_of(soft_lut_, ones, trials_);
    if (counts != nullptr) counts[p * m + c] = static_cast<std::uint16_t>(ones);
  };

  // Same cell streams as scan_individual over the full scan: cell (p, c) is
  // keyed by p * total + c regardless of how rows are chunked, so every
  // measurement is a pure function of (base, cell) — chunking and thread
  // count change nothing.
  const StreamFamily streams(base_);
  static Counter& measurements =
      MetricsRegistry::global().counter("tester.measurements");
  parallel_for(m, kScanChunk, [&](std::size_t begin, std::size_t end, std::size_t) {
    thread_local std::vector<double> z;
    z.resize((end - begin) * n_pufs);
    view_.standardized_delays_into(chunk.parity, begin, end, z.data());
    count_tile(counter_, streams, z.data(), n_pufs, begin, end, total_, begin_global, emit);
    measurements.add((end - begin) * n_pufs);
  });
  if (kept) counted_ += m;
  position_ += m;
  return true;
}

ChipScanStream ChipTester::stream_individual(const XorPufChip& chip, std::size_t total,
                                             std::size_t chunk_challenges) {
  return ChipScanStream(chip, env_, trials_, total, chunk_challenges, rng_);
}

}  // namespace xpuf::sim
