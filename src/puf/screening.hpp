// Batched stable-challenge screening — the authentication hot-path core.
//
// The paper's issuance is rejection sampling: draw random challenges, keep
// those predicted stable on ALL n PUFs (acceptance ~0.800^n, ~10.7% at
// n = 10). ChallengeScreener runs that walk either serially (the reference)
// or in blocks as a survivor cascade, with a determinism contract that makes
// the two modes — and any block size or thread count — bit-invisible:
//
//   candidate j of a screening walk is a pure function of (family, j): its
//   challenge bits come from StreamFamily::stream(first_index + j) alone.
//
// Candidate j is the packed_words(stages) next_u64() draws of its stream,
// stage bit i in bit i % 64 of word i / 64, with the bits above `stages`
// cleared — the canonical packed row, and the one challenge format from
// here to the replay ledger, the pool records and the wire (a Challenge is
// unpacked only at the device boundary). The batched walk keeps those
// words plus their suffix-parity form (sim::suffix_parity_words), which
// carries every Phi sign. PUF p is then evaluated (sim::parity_dots, the
// serial walk's ascending dot bit for bit) only on the rows still stable
// on PUFs 0..p-1, so a candidate costs (1 - A) / (1 - A^(1/n)) evaluations
// at acceptance A instead of n. The survivors stay in index order, and the
// sink is handed each stable row in place.
//
// So the issued-challenge sequence, the expected-response bits, and the
// exact candidates_tried count are identical across serial/batched modes,
// block sizes, and thread counts; and a screening walk consumes NOTHING
// from the caller's RNG beyond the one fork_base() draw that seeded the
// family. The walk is resumable: Outcome::next_index is the index the next
// refill continues from (the pool cursor persisted in POOL records).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "puf/model_view.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf {

struct ScreeningOptions {
  /// Max candidates drawn per block in batched mode. Any value >= 1 yields
  /// the identical issued sequence; it only trades per-block overhead
  /// against wasted tail evaluations past the quota.
  std::size_t block = 256;
  /// false = the serial per-candidate reference walk (bench A/B + tests).
  bool batched = true;
};

class ChallengeScreener {
 public:
  /// Outcome of one screening walk.
  struct Outcome {
    std::size_t tried = 0;     ///< candidates examined (== stream indices consumed)
    std::size_t stable = 0;    ///< candidates predicted stable on all n PUFs
    std::size_t accepted = 0;  ///< stable candidates the sink counted toward the quota
    bool filled = false;       ///< quota reached within max_attempts
    std::uint64_t next_index = 0;  ///< resume cursor: first_index + tried
  };

  /// Receives each stable candidate in index order — its canonical packed
  /// row, valid only during the call — with its expected XOR bit; returns
  /// true to count it toward the quota (false = caller-side rejection, e.g.
  /// the replay ledger — the walk continues).
  using Sink = std::function<bool(std::span<const std::uint64_t>, bool)>;

  /// Screens the first `n_pufs` PUFs of `view`; the view must outlive the
  /// screener.
  ChallengeScreener(const ModelView& view, std::size_t n_pufs,
                    ScreeningOptions options = {});

  /// Walks candidates first_index, first_index + 1, ... until `count` were
  /// accepted by the sink or `tried` reached max_attempts.
  Outcome screen(const StreamFamily& family, std::uint64_t first_index,
                 std::size_t count, std::size_t max_attempts, const Sink& sink);

  /// The candidate generator of both walks: stage bits drawn 64 per
  /// next_u64() word (LSB-first) into `row` (packed_words(stages) words),
  /// bits above `stages` cleared. Faster than per-bit bernoulli and equally
  /// uniform; the per-candidate stream makes the draw count per candidate
  /// irrelevant to every other candidate.
  static void candidate_into(std::span<std::uint64_t> row, std::size_t stages, Rng& rng);

  const ScreeningOptions& options() const { return options_; }

 private:
  Outcome screen_serial(const StreamFamily& family, std::uint64_t first_index,
                        std::size_t count, std::size_t max_attempts, const Sink& sink);
  Outcome screen_batched(const StreamFamily& family, std::uint64_t first_index,
                         std::size_t count, std::size_t max_attempts, const Sink& sink);

  const ModelView* view_;
  std::size_t n_pufs_;
  ScreeningOptions options_;
  std::vector<ThresholdPair> thresholds_;  ///< beta-adjusted, derived once
  // Reused block storage, allocated on the first block and refilled in place
  // after: packed candidate words and their suffix-parity words
  // (packed_words(stages) per row), the rows still stable on every PUF
  // screened so far (ascending), their delays under the current PUF, and
  // each row's running XOR of predicted bits.
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> parity_;
  std::vector<std::size_t> survivors_;
  std::vector<double> delays_;
  std::vector<std::uint8_t> bits_;
};

/// Selection-cost accounting shared by every screening call site (the
/// selectors, database issuance, and pool refills): bumps
/// selection.candidates_tried / selection.accepted and observes the
/// per-walk candidate count in the selection.batch_candidates histogram.
void record_screening(std::size_t tried, std::size_t accepted);

}  // namespace xpuf::puf
