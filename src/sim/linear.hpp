// Batched linear-view evaluation core.
//
// The paper's workload is batch-shaped — millions of challenges scanned
// across n PUFs, 9 V/T corners, and repeated trials — and the additive delay
// model makes every noise-free delay a dense linear map: delta = w . phi(c).
// Every batch evaluation in the codebase reads phi from one representation,
// packed suffix-parity words:
//
//  - packed challenges (packed_words(stages) u64s per row, stage bit i in
//    bit i % 64 of word i / 64) go through suffix_parity_words once, whose
//    set bits are exactly phi's -1 entries (challenge_parity does the same
//    for a Challenge batch);
//  - DeviceLinearView: one device's reduced weights + noise sigma, frozen at
//    a given (Environment, aging) state; its scalar delay over a feature_fill
//    row is the reference every batch kernel reproduces;
//  - ChipLinearView: the n devices' weights stacked for the parity tiles,
//    which evaluate every PUF on a row range (the scans, the enrollment fit's
//    diagnostics, model predictions), and parity_dots evaluates one weight
//    row on any subset of rows (stable-challenge screening);
//  - LazyCdfCounter turns a tile row of standardized delays into the scan's
//    binomial counts, deciding most from each cell's first generator word
//    before any CDF is computed.
//
// Determinism contract: the parity tiles and parity_dots accumulate each
// output element as the ascending-index dot does — w_i with phi_i's sign
// from +0.0, the bias weight last — so batch results are bit-identical to
// the scalar linear-view evaluation at any thread count or tile size. The
// kernels are serial by design — they are meant to run inside parallel_for
// chunk bodies, where nested parallelism already degrades to serial.
//
// A linear view is a snapshot: it does NOT track later ArbiterPufDevice::age
// calls or environment changes. Rebuild it per (Environment, aging) state.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "sim/device.hpp"

namespace xpuf::sim {

/// The exact double (-1)^parity: +1.0 for an even parity, -1.0 for an odd
/// one (only bit 0 of `parity` counts). The sign bit is set directly, so a
/// running XOR parity replaces the multiply-and-branch chain
/// `acc *= c ? -1.0 : 1.0` bit for bit — every phi entry is exactly +/-1.
inline double parity_sign(std::uint64_t parity) {
  return std::bit_cast<double>(0x3FF0000000000000ULL | ((parity & 1U) << 63));
}

/// Writes phi(c) into a caller-provided buffer of challenge.size() + 1
/// doubles: phi_i = prod_{j >= i} (1 - 2 c_j), phi_{k+1} = 1. This is the
/// canonical parity-transform kernel; puf/transform.hpp delegates here.
void feature_fill(const Challenge& challenge, double* out);

/// Number of 64-bit words a packed `stages`-bit challenge occupies.
constexpr std::size_t packed_words(std::size_t stages) { return (stages + 63) / 64; }

/// Draws one packed challenge into `row` (packed_words(stages) words) from
/// the same bernoulli() draws random_challenge makes: stage bit i is
/// draw i, stored in bit i % 64 of word i / 64. A packed stream and a
/// Challenge stream over one generator state therefore agree bit for bit
/// and leave the generator in the same state. Bits above `stages` are zero.
void random_packed_challenge_into(std::span<std::uint64_t> row, std::size_t stages,
                                  Rng& rng);

/// The inverse of the packing above: writes the `stages` bits of one packed
/// row into `out` (resized to `stages`), one 0/1 byte per stage.
void unpack_challenge_into(std::span<const std::uint64_t> row, std::size_t stages,
                           Challenge& out);

/// Packs `challenge` (one 0/1 byte per stage) into `row`
/// (packed_words(challenge.size()) words) in the layout above, bits above
/// the stage count zero — the inverse of unpack_challenge_into.
void pack_challenge_into(const Challenge& challenge, std::span<std::uint64_t> row);

/// Bytes of a packed `stages`-bit challenge in the store log and on the
/// wire: the row's little-endian bytes, truncated — byte b holds stage bits
/// 8b .. 8b + 7, least-significant first.
constexpr std::size_t packed_bytes(std::size_t stages) { return (stages + 7) / 8; }

/// Appends the packed_bytes(stages) bytes of each packed row in `rows`
/// (packed_words(stages) words per row) to `out`, back to back: one resize,
/// then each row's whole words and its last word's tail bytes.
void append_packed_bytes(std::span<const std::uint64_t> rows, std::size_t stages,
                         std::vector<std::uint8_t>& out);

/// Reads rows.size() / packed_words(stages) rows of packed_bytes(stages)
/// bytes each into `rows`, the inverse of append_packed_bytes. Returns false
/// when a bit above `stages` is set in any row: rejecting those keeps
/// exactly one byte form per challenge, so two byte strings can never alias
/// one replay-ledger key.
bool read_packed_bytes(const std::uint8_t* bytes, std::size_t stages,
                       std::span<std::uint64_t> rows);

/// Bit i of the result is the XOR of bits i..63 of x — the within-word
/// suffix parity, by an xor-shift cascade toward the low end: one word of
/// suffix_parity_words, and all of a row of up to 64 stages.
inline std::uint64_t suffix_parity(std::uint64_t x) {
  x ^= x >> 1;
  x ^= x >> 2;
  x ^= x >> 4;
  x ^= x >> 8;
  x ^= x >> 16;
  x ^= x >> 32;
  return x;
}

/// Suffix-parity form of packed challenges. `words` holds whole rows of
/// packed_words(stages) words: stage bit i of a row in bit i % 64 of word
/// i / 64, least-significant bit first; bits above `stages` in the last word
/// are ignored. Writes the same shape into `out` (which must not alias
/// `words`): bit i of a row is the XOR of its stage bits i .. stages - 1, so
/// phi_i = parity_sign(bit i) — the set bits are exactly the -1 entries of
/// feature_fill's row. Bits above `stages` come out zero.
void suffix_parity_words(std::span<const std::uint64_t> words, std::size_t stages,
                         std::span<std::uint64_t> out);

/// Suffix-parity rows of a Challenge batch: each challenge (exactly `stages`
/// stages, or the call throws) packed and run through suffix_parity_words,
/// packed_words(stages) words per row. An empty batch yields no rows.
std::vector<std::uint64_t> challenge_parity(const std::vector<Challenge>& challenges,
                                            std::size_t stages);

/// Noise-free delays of selected packed candidates under one weight row:
/// out[k] = weights . phi(candidate rows[k]) for k < rows.size(), where
/// `parity` holds suffix_parity_words rows of a stages = weights.size() - 1
/// challenge batch. Nothing past out[rows.size() - 1] is written.
///
/// Each output is accumulated exactly as linalg::dot(weights, phi) does it:
/// ascending i from +0.0, term i being w_i with phi_i's sign — the sign bit
/// flipped where the parity bit is set, which is exact (w * -1.0 == -w) for
/// every non-NaN weight — and w_stages last. So the result is bit-identical
/// to DeviceLinearView::delay and the parity tiles; a NaN weight yields NaN
/// either way (its sign may differ). The AVX2 build puts one row per vector
/// lane and four vectors in flight; the scalar build walks rows one by one
/// through the same operations.
void parity_dots(std::span<const double> weights, std::span<const std::uint64_t> parity,
                 std::span<const std::size_t> rows, std::span<double> out);

/// Draws `count` uniformly random challenges (no dedup: with 2^32+ space,
/// collisions are negligible at paper scale and the paper samples
/// uniformly). The single shared implementation behind puf::random_challenges
/// and ChipTester::random_challenges.
std::vector<Challenge> random_challenges(std::size_t stages, std::size_t count,
                                         Rng& rng);

/// One device's additive-delay model frozen at an (Environment, aging)
/// state: delta(c) = weights . phi(c), flip probability
/// Phi_cdf(delta / noise_sigma). Obtain from ArbiterPufDevice::linear_view.
struct DeviceLinearView {
  linalg::Vector weights;   ///< reduced weights, length stages + 1
  double noise_sigma = 1.0; ///< arbiter thermal-noise sigma at the corner

  std::size_t features() const { return weights.size(); }

  /// Scalar evaluation from a precomputed feature row (ascending dot — the
  /// reference the batch kernels are bit-identical to).
  double delay(std::span<const double> phi) const;
  double one_probability(std::span<const double> phi) const;
};

/// A chip's n devices stacked so one parity tile evaluates every (challenge,
/// PUF) cell of a row range.
class ChipLinearView {
 public:
  ChipLinearView() = default;
  explicit ChipLinearView(std::vector<DeviceLinearView> devices);

  std::size_t puf_count() const { return noise_sigmas_.size(); }
  std::size_t features() const { return weights_t_.rows(); }
  double noise_sigma(std::size_t puf_index) const;

  /// Tile kernels over rows [begin, end) of suffix_parity_words output
  /// (packed_words(features() - 1) words per row): write (end - begin) x
  /// puf_count() values row-major into `out`. Each element adds w_i with
  /// the sign bit of parity bit i flipped in, ascending i from +0.0, then
  /// the bias weight — DeviceLinearView::delay's chain with every multiply
  /// by +/-1.0 replaced by its exact sign flip, so the delays equal it bit
  /// for bit (for non-NaN weights). standardized_delays_into divides each
  /// by its PUF's noise sigma (z = delay / sigma, for callers that map z to
  /// a count without the CDF, LazyCdfCounter); one_probabilities_into then
  /// applies normal_cdf_batch, which is normal_cdf per element. Serial by
  /// design.
  void delay_differences_into(std::span<const std::uint64_t> parity, std::size_t begin,
                              std::size_t end, double* out) const;
  void standardized_delays_into(std::span<const std::uint64_t> parity, std::size_t begin,
                                std::size_t end, double* out) const;
  void one_probabilities_into(std::span<const std::uint64_t> parity, std::size_t begin,
                              std::size_t end, double* out) const;

 private:
  linalg::Matrix weights_t_;         // (k+1) x puf_count zero-padded to a
                                     // four-lane stride, for the tile kernels
  std::vector<double> noise_sigmas_; // per-PUF sigma at the snapshot corner
};

/// Counter readings Binomial(trials, normal_cdf(z)) of scan cells: cell c
/// of a row has standardized delay z and draws from its own fresh stream,
/// and its count is exactly `stream.binomial(trials, normal_cdf(z))`.
/// normal_cdf runs only where the count can depend on it.
///
/// Most cells leave Rng::binomial at its zero-count exit: the first uniform
/// u is at most 1 - n q - 2^-40 (q = normal_cdf(z) on the low side, and
/// 1 - normal_cdf(z) on the mirror side, whose exit count is `trials`),
/// wherever n q < 30. An exit table decides that from u before any CDF is
/// computed. Its knots lie 2^-7 apart from one knot below
/// lower_cut(trials) (rounded down to a knot) up to kNormalCdfOneFrom
/// (rounded up), and slot i covers knots [i - 1, i):
///
///  - slot 0 is every z below the first knot. There trials * normal_cdf(z)
///    < 2^-54, so the exit bound rounds to exactly kZeroExit, count 0.
///  - an interval wholly at or below 0 and wholly in the inversion regime
///    (n q < 30 at its upper knot) stores the bound computed as binomial
///    does at that knot, count 0; an interval wholly at or above 0 with
///    normal_cdf > 0.5 at its lower knot stores the mirror bound at that
///    knot, count `trials`. Each is the interval's smallest bound, because
///    normal_cdf is monotone (tests/test_math.cpp sweeps it) and so is
///    every rounded step of the bound.
///  - the last slot is every z from the last knot up, where normal_cdf(z)
///    is exactly 1: count `trials` for any u.
///  - every other slot decides nothing.
///
/// A slot then keeps the smallest bound of itself and its two neighbours,
/// and decides nothing where their counts differ, so a z that rounding
/// indexes one interval off still meets a bound no larger than its own.
/// NaN decides nothing. Cells the table does not decide run
/// `streams.stream(key).binomial(trials, normal_cdf(z))` exactly as an
/// eager scan does, so every count is bit-identical; the streams are the
/// cells' own and are discarded, so no state leaks out.
class LazyCdfCounter {
 public:
  /// Rng::binomial's zero-count exit bound wherever n p < 2^-54.
  static constexpr double kZeroExit = 1.0 - 0x1p-40;

  explicit LazyCdfCounter(std::uint64_t trials);

  /// The cut below which every z has trials * normal_cdf(z) < 2^-54.
  static double lower_cut(std::uint64_t trials);

  /// The table's decision for standardized delay z: a cell whose first
  /// uniform u is at most `bound` has count `count`. `bound` is a multiple
  /// of 2^-53 (a value u can take), and negative where the table decides
  /// nothing.
  struct Exit {
    double bound;
    std::uint64_t count;
  };
  Exit exit_for(double z) const;

  /// Counts of a row of m cells: cell c has standardized delay
  /// z[c * z_stride], draws from streams.stream(first_key + c) and gets its
  /// count in out[c]. The first generator word of every cell is
  /// StreamFamily::first_u64; the table decides most cells from it, and the
  /// rest build their stream. Throws (as binomial does) on a NaN z.
  void count_row(const double* z, std::size_t z_stride, std::size_t m,
                 const StreamFamily& streams, std::uint64_t first_key,
                 std::uint64_t* out) const;

 private:
  std::size_t slot(double z) const;

  std::uint64_t trials_;
  double first_knot_;
  /// Slot indices are clamped to [0, top_].
  double top_;
  /// Slots from here on exit with `trials`, those below with 0.
  std::size_t mirror_from_;
  /// Per slot: a cell exits when its first word >> 11 is at most this,
  /// that is, when u <= limit * 2^-53. -1 decides nothing.
  std::vector<std::int64_t> limits_;
};

}  // namespace xpuf::sim
