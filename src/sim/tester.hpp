// Batch test harness — the simulated PXI + USB DAQ bench setup of Fig 2.
//
// Applies challenge lists to a chip at a programmable corner and collects
// per-PUF soft responses through the fused taps (enrollment) or one-shot
// XOR responses (authentication-side measurements).
//
// Scans run on the global thread pool (common/parallel.hpp). Each scan
// draws ONE base value from the tester's stream and derives a private
// per-measurement child stream keyed by the (puf, challenge) cell index, so
// scan output is bit-identical for any thread count.
//
// Every scan evaluates through the linear-view core (sim/linear.hpp): the
// challenges become suffix-parity words once per scan (per chunk on the
// streaming scan), one parity tile per parallel chunk yields every cell's
// standardized delay, and one LazyCdfCounter row pass per PUF turns them
// into binomial counter readings: most cells are settled from the first
// word of their own stream by the counter's exit table, and the rest draw
// binomial(trials, normal_cdf(z)) from that stream. The per-cell stage walk
// is the test oracle they are held to (tests/oracle/); see DESIGN.md
// "Batched evaluation core" and "Streaming enrollment" for the equivalence
// contract.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/chip.hpp"
#include "sim/linear.hpp"

namespace xpuf::sim {

/// Per-challenge measurement of every individual PUF on a chip.
struct ChipSoftScan {
  std::vector<Challenge> challenges;
  /// soft[p][c] = soft response of PUF p on challenge c.
  std::vector<std::vector<double>> soft;
  /// stable[p][c] = the counter saw zero flips.
  std::vector<std::vector<bool>> stable;
  std::uint64_t trials = 0;
  Environment environment;
};

/// One chunk of a streaming individual-PUF scan, for global challenges
/// `offset` .. `offset + size() - 1`. The challenges stay packed: `words`
/// holds packed_words(stages) words per challenge (stage bit i in bit i % 64
/// of word i / 64, drawn by random_packed_challenge_into), and `parity` their
/// suffix_parity_words — the signs of each challenge's Phi row, which is all
/// the scan's parity tiles and the normal equations read. No Phi matrix and no
/// Challenge copies are built. `soft[p][i]` is the measurement for the
/// chunk's i-th challenge (exactly 0.0 or 1.0 where the counter saw no
/// flips, since soft = ones / trials). All vectors keep their heap
/// blocks across next() calls, so a steady-state chunk costs zero
/// allocations.
struct ScanChunk {
  std::size_t offset = 0;
  std::size_t stages = 0;
  /// Packed challenge bits, packed_words(stages) words per challenge.
  std::vector<std::uint64_t> words;
  /// suffix_parity_words(words, stages): bit i of a row set where phi_i = -1.
  std::vector<std::uint64_t> parity;
  /// soft[p][i] = soft response of PUF p on the chunk's i-th challenge.
  std::vector<std::vector<double>> soft;

  /// Challenges in the chunk.
  std::size_t size() const { return stages == 0 ? 0 : words.size() / packed_words(stages); }
};

/// Chunked producer over a ChipTester scan: generates challenges, measures
/// every (PUF, challenge) cell, and hands back fixed-size ScanChunks instead
/// of whole-scan vectors, so a scan of any length runs in O(chunk +
/// kRetainBytes) memory.
///
/// Determinism contract: a stream over `total` challenges is bit-identical
/// to the materialized sequence `random_challenges(total)` followed by
/// `scan_individual` — for ANY chunk size. Challenges follow the exact draw
/// sequence of the materialized path, packed into words as they are drawn,
/// and every cell's measurement stream is keyed by `p * total + c` off one
/// base draw taken after all the challenge draws, exactly where
/// scan_individual takes it.
///
/// Each cell is simulated once, and each challenge bit of the kept prefix
/// drawn once. The kept prefix is the run of whole chunks from the first
/// whose parity words and per-cell counts fit kRetainBytes, when every count
/// fits 16 bits (trials <= 65535). Construction draws the kept prefix's
/// challenges into memory and skips the rest, saving the generator state
/// for them; next() measures a kept chunk once and keeps its counts. reset()
/// rewinds to the first chunk: kept chunks come back from memory (words
/// rebuilt from the parity words, soft from the counts), and only the
/// chunks past the budget are drawn and measured again — from the same
/// generator state and cell streams, so either way the replayed scan is
/// bit-identical.
///
/// The stream borrows the chip; it must outlive the stream.
class ChipScanStream {
 public:
  /// Byte budget for the kept prefix: 8 bytes per parity word plus 2 per
  /// cell count, per challenge.
  static constexpr std::size_t kRetainBytes = std::size_t{4} << 20;

  std::size_t total() const { return total_; }
  std::size_t chunk_challenges() const { return chunk_; }
  std::size_t position() const { return position_; }
  /// Challenges [0, retained()) are kept in memory for replay.
  // Test hook: test_streaming checks the stream's retention
  // budget.  xpuf-lint: allow(orphan-symbol)
  std::size_t retained() const { return retained_; }

  /// Fills `chunk` with the next up-to-chunk_challenges() challenges and
  /// their measurements; returns false (leaving `chunk` untouched) when the
  /// scan is exhausted.
  bool next(ScanChunk& chunk);

  /// Rewinds to the first chunk; the replayed scan is bit-identical.
  void reset();

 private:
  friend class ChipTester;
  ChipScanStream(const XorPufChip& chip, const Environment& env,
                 std::uint64_t trials, std::size_t total, std::size_t chunk,
                 Rng& tester_rng);

  const XorPufChip* chip_ = nullptr;
  Environment env_;
  std::uint64_t trials_ = 0;
  std::size_t total_ = 0;
  std::size_t chunk_ = 0;
  std::size_t position_ = 0;
  Rng challenge_rng_;         ///< draws challenge position_ on, past the kept prefix
  Rng challenge_rng_resume_;  ///< generator state at challenge retained_, for reset()
  std::uint64_t base_ = 0;    ///< keys every cell's measurement stream
  ChipLinearView view_;       ///< the chip's linear view at env_
  LazyCdfCounter counter_;
  std::vector<double> soft_lut_;
  std::size_t retained_ = 0;
  /// Challenges [0, counted_) have their counts kept; it advances only once
  /// a chunk's measurement has finished.
  std::size_t counted_ = 0;
  /// Parity words of challenges [0, retained_), packed_words(stages) each,
  /// drawn at construction.
  std::vector<std::uint64_t> retained_parity_;
  /// Counts of challenges [0, counted_), chunk by chunk: the chunk at
  /// offset o with m challenges holds PUF p's counts at o * pufs + p * m.
  std::vector<std::uint16_t> retained_counts_;
};

class ChipTester {
 public:
  /// `trials` is the per-challenge evaluation count K (paper: 100,000).
  ChipTester(Environment env, std::uint64_t trials, Rng rng);

  const Environment& environment() const { return env_; }
  std::uint64_t trials() const { return trials_; }

  /// Generates `count` uniformly random challenges for a chip's stage count.
  std::vector<Challenge> random_challenges(const XorPufChip& chip, std::size_t count);

  /// Measures soft responses of every individual PUF for every challenge.
  /// Requires all enrollment fuses intact.
  ChipSoftScan scan_individual(const XorPufChip& chip,
                               const std::vector<Challenge>& challenges);

  /// Streaming scan over `total` freshly drawn challenges in chunks of
  /// `chunk_challenges`: bit-identical to random_challenges(total) +
  /// scan_individual, in O(chunk) memory (see ChipScanStream). Advances the
  /// tester's generator exactly as the materialized pair would.
  ChipScanStream stream_individual(const XorPufChip& chip, std::size_t total,
                                   std::size_t chunk_challenges);

 private:
  Environment env_;
  std::uint64_t trials_;
  Rng rng_;
};

}  // namespace xpuf::sim
