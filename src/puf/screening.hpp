// Batched stable-challenge screening — the authentication hot-path core.
//
// The paper's issuance is rejection sampling: draw random challenges, keep
// those predicted stable on ALL n PUFs (acceptance ~0.800^n, ~10.7% at
// n = 10). ChallengeScreener runs that walk in blocks as a survivor cascade,
// with a determinism contract that makes the block size and thread count
// bit-invisible — and the walk equal to the serial one-candidate-at-a-time
// reference (kept in the test oracles):
//
//   candidate j of a screening walk is a pure function of (family, j): its
//   challenge bits come from StreamFamily::stream(first_index + j) alone.
//
// Candidate j is the packed_words(stages) next_u64() draws of its stream,
// stage bit i in bit i % 64 of word i / 64, with the bits above `stages`
// cleared — the canonical packed row, and the one challenge format from
// here to the replay ledger, the pool records and the wire (a Challenge is
// unpacked only at the device boundary). The walk keeps those
// words plus their suffix-parity form, which carries every Phi sign: a row
// of up to 64 stages takes it (sim::suffix_parity) in the draw loop itself,
// wider rows from sim::suffix_parity_words. PUF p is then evaluated only on
// the rows still stable on PUFs 0..p-1, so a candidate costs
// (1 - A) / (1 - A^(1/n)) evaluations at acceptance A instead of n. The
// survivors stay in index order, and the sink is handed each stable row in
// place.
//
// Every verdict and every XOR bit is the ascending dot's — the serial
// walk's sum of w_i with phi_i's sign, ascending i from +0.0, bias last
// (sim::parity_dots) — while a delay off the margin below comes from byte
// tables. Per PUF, table t (t < K = ceil(stages / 8)) holds for every byte
// v the signed sum T_t[v] = sum_j (bit j of v ? -w : +w)_{8t+j}, built
// lazily on the first block that reaches the PUF: T_t[0] is the ascending
// sum of the eight weights (0.0 past `stages`), then, for v with highest
// set bit j, T_t[v] = T_t[v - 2^j] - 2 w_{8t+j}. A row's approximate delay is
// a = bias + T_0[byte 0] + ... + T_{K-1}[byte K-1] of its parity row — K
// lookups instead of stages + 1 sign flips and adds.
//
// The certified margin. Let u = 2^-53, gamma_m = m u / (1 - m u), S_t the
// sum of |w_i| over table t's weights and S = sum_i |w_i| (bias included),
// and D the real-number delay. By the recursive-summation bound
// |fl(x_1 + ... + x_m) - sum x| <= gamma_{m-1} sum |x|, valid in any order
// and through gradual underflow, with 2 w exact:
//   - the ascending dot sums stages + 1 terms of magnitude |w_i| from +0.0:
//     |dot - D| <= gamma_stages S;
//   - T_t[v] sums the eight weights, then at most eight -2 w terms, 16
//     terms of total magnitude <= 3 S_t: |T_t[v] - exact| <= 3 gamma_15 S_t,
//     so |T_t[v]| <= (1 + 3 gamma_15) S_t;
//   - a sums K + 1 terms: its rounding is <= gamma_K (1 + 3 gamma_15) S, and
//     the table errors add at most 3 gamma_15 S.
// So |a - dot| <= (gamma_K (1 + 3 gamma_15) + 3 gamma_15 + gamma_stages) S
// <= 1.02 (stages + K + 45) u S. The screener takes
// eps_p = max(2 (stages + K + 45) u fl(S), 2^-1000): the factor 2 covers
// the (1 + O(stages u)) factors, fl(S) >= S (1 - gamma_stages) and the
// rounding of the product; the floor covers its underflow. Each threshold
// t gets the guard interval [lo_t, hi_t] with
// lo_t = nextafter(fl(t - eps_p), -inf) <= t - eps_p and
// hi_t = nextafter(fl(t + eps_p), +inf) >= t + eps_p, so comparisons need no
// further rounding argument: a > hi_t implies dot > t, and a < lo_t implies
// dot < t. A PUF is tabled when eps_p is finite and thr0 <= 0.5 <= thr1.
// Then a < lo_thr0 means dot < thr0 <= 0.5: stable, bit 0; a > hi_thr1
// means dot > thr1 >= 0.5: stable, bit 1; hi_thr0 < a < lo_thr1 means
// thr0 < dot < thr1: unstable (a bit no sink ever sees). So the 0.5
// comparison is never made on a. Any other row — a within eps_p of thr0
// or thr1 — is open: it gets its exact dot from sim::parity_dots and is
// classified on that (Outcome::exact_fallbacks, counter
// selection.exact_fallbacks). A PUF with a threshold outside that order or
// NaN, or with eps_p = +inf, which fl(S) not below DBL_MAX / 8 forces (a
// NaN or infinite weight, or weights near overflow), is exact-only: every
// row it sees takes the exact path. Below that bound no table entry or
// partial sum can overflow, so a is finite, and an infinite threshold needs
// no special case.
//
// The pass. Each survivor carries its data: its first suffix-parity word
// (all of a row of up to 64 stages; wider rows read the rest by row index)
// and a tag, row index << 1 | running XOR bit, in two arrays compacted
// together. So a pass reads contiguous memory, and a bit is settled without
// a read-modify-write through the row index. A tabled PUF's pass is two
// loops. The first writes each survivor's delay a into a reused buffer,
// adding bias, T_0, ..., T_{K-1} in that order with plain byte-addressed
// loads: a vgatherqpd version measured slower than the scalar loads. The
// second classifies. The AVX2 build (the XPUF_BATCH_SIMD gate of the batch
// kernels) compares four delays against the four guards at once; a group
// whose lanes are all settled XORs its stable-1 lanes into their tags and
// left-packs its kept lanes in place with one _mm256_permutevar8x32_epi32
// per array, the indices taken from a 16-entry table keyed by the kept-lane
// mask. A group with an open lane, and the last m % 4 rows, take the scalar
// per-row step that the portable build takes for every row, so the exact
// path sees the same rows in the same order either way; the compares are
// exact, so both builds reach the same verdicts. On a shared 4-vCPU Xeon
// (n = 10, 32 stages, ~63 % per-PUF pass, refill-sized walks, best of 9) a
// candidate costs 5.3 ns to draw with its parity and 10.0 ns in the
// passes, against 9.5 and 17.9 ns for a separate parity sweep and a fused
// per-row pass.
//
// So the issued-challenge sequence, the expected-response bits, and the
// exact candidates_tried count are identical to the serial walk's across
// block sizes and thread counts; and a screening walk consumes NOTHING
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
  /// Max candidates drawn per block. Any value >= 1 yields the identical
  /// issued sequence; it only trades per-block overhead against wasted tail
  /// evaluations past the quota.
  std::size_t block = 256;
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
    /// Rows whose byte-table delay fell inside a guard interval, or that
    /// reached an exact-only PUF, so their verdict was taken on the exact
    /// ascending dot.
    std::size_t exact_fallbacks = 0;
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

  /// The candidate generator of the walk: stage bits drawn 64 per
  /// next_u64() word (LSB-first) into `row` (packed_words(stages) words),
  /// bits above `stages` cleared. Faster than per-bit bernoulli and equally
  /// uniform; the per-candidate stream makes the draw count per candidate
  /// irrelevant to every other candidate.
  // Test hook: the serial oracle (tests/oracle), test_screening and test_linear
  // draw candidates through it.  xpuf-lint: allow(orphan-symbol)
  static void candidate_into(std::span<std::uint64_t> row, std::size_t stages, Rng& rng);

  const ScreeningOptions& options() const { return options_; }

 private:
  /// Byte-table evaluation of one PUF: the bias and the guard intervals
  /// [lo0, hi0] around thr0 and [lo1, hi1] around thr1. Tabled only when
  /// eps_p is finite and thr0 <= 0.5 <= thr1.
  struct TablePuf {
    double bias = 0.0;
    double lo0 = 0.0;
    double hi0 = 0.0;
    double lo1 = 0.0;
    double hi1 = 0.0;
    bool tabled = false;
  };

  /// One cascade step on PUF p over the live survivors: a tabled PUF's
  /// pass writes every table delay, then classifies them, XORs settled bits
  /// into the tags and compacts the survivors in place; the rows inside a
  /// guard interval — every row of an exact-only PUF — are then settled on
  /// their exact dots. Returns how many rows took the exact path.
  std::size_t screen_puf(std::size_t p, const double* tables);

  const ModelView* view_;
  std::size_t n_pufs_;
  ScreeningOptions options_;
  std::vector<ThresholdPair> thresholds_;  ///< beta-adjusted, derived once
  std::vector<TablePuf> table_pufs_;       ///< per PUF, derived once
  std::size_t n_tables_ = 0;               ///< K = ceil(stages / 8)
  // Reused block storage, sized on the first block and refilled in place
  // after: the packed candidate words (packed_words(stages) per row) and,
  // for rows of more than 64 stages, their suffix-parity words; then the
  // survivors — the first live_ rows still stable on every PUF screened so
  // far, ascending — each as its first suffix-parity word (all of a row of
  // up to 64 stages) and a tag, row index << 1 | running XOR of predicted
  // bits. A pass's table delays (then its exact dots) and the positions of
  // its exact-path rows (with their row indices for wide rows) live beside.
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> parity_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> tags_;
  std::size_t live_ = 0;
  std::vector<double> delays_;
  std::vector<std::size_t> fallback_at_;
  std::vector<std::size_t> fallback_rows_;
};

/// Selection-cost accounting shared by every screening call site (the
/// selectors, database issuance, and pool refills): bumps
/// selection.candidates_tried / selection.accepted and observes the
/// per-walk candidate count in the selection.batch_candidates histogram.
void record_screening(std::size_t tried, std::size_t accepted);

}  // namespace xpuf::puf
