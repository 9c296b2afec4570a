// Streaming normal-equations accumulator: the O(d^2)-memory core of the
// fixed-memory enrollment pipeline.
//
// The materialized path (ml::LinearRegression over a fully built Dataset)
// computes W = (X^T X)^{-1} X^T y after holding all n rows of X in
// RAM. This accumulator consumes X in row chunks and keeps only
//
//   G   = X^T X      (d x d, as integer disagreement counts, see below)
//   Xty = X^T y_t    (d per target; its bias element is sum(y_t), so it
//                     also gives the target means for R^2 bookkeeping)
//
// so memory is O(d^2 + d * targets) regardless of n.
//
// X is the parity-feature design matrix of arbiter-PUF challenges, and it
// arrives packed: each row is the suffix-parity words of one challenge
// (sim::suffix_parity_words), bit i set where phi_i = -1, phi_{d-1} = +1
// implied. Nothing ever builds X as doubles:
//
//  - Gram. phi_i * phi_j is +1 where bits i and j agree and -1 where they
//    differ, so over a chunk G(i, j) gains rows - 2 * popcount(column_i XOR
//    column_j), the columns being the chunk's bits transposed 64 rows at a
//    time. The one-shot gram() adds the same +/-1 terms in row order from
//    +0.0; every partial sum is an integer of magnitude <= n < 2^53, so every
//    addition is exact and the two agree to the last bit for any chunking.
//  - Xty. phi_c * y_r is y_r with its sign bit flipped where bit c is set
//    (exact for non-NaN y). Each element adds its terms in ascending global
//    row order, exactly like matvec_transposed(), so feeding chunks in
//    ascending row order reproduces it bit for bit. The AVX2 build holds
//    up to 32 elements of one target (36 with the bias) in registers
//    across a chunk's rows, taking four sign masks at a time from a table
//    indexed by four parity bits; every lane still runs its own element's
//    chain in row order.
//
// The shared Cholesky solve therefore reproduces the materialized
// coefficients to the last bit. Multiple targets share one G and one
// Cholesky factorization — the main arithmetic saving over per-PUF
// materialized fits, which redo the O(n d^2) gram per target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace xpuf::ml {

/// Per-chunk accumulator for least squares over a shared
/// parity-feature design matrix with `targets` independent right-hand
/// sides. `features` is stages + 1 (at least 2).
class StreamingNormalEquations {
 public:
  StreamingNormalEquations(std::size_t features, std::size_t targets);

  std::size_t features() const { return features_; }
  std::size_t targets() const { return targets_; }
  std::size_t rows() const { return rows_; }

  /// Folds one chunk into the accumulator. `parity` holds the chunk's rows
  /// as suffix-parity words, (features() - 1 + 63) / 64 words per row; bits
  /// at and above features() - 1 in a row's last word are ignored.
  /// `chunk_targets[t]` holds the matching rows of target t. Chunks must
  /// arrive in ascending global row order (the Xty contract above).
  void accumulate(std::span<const std::uint64_t> parity,
                  std::span<const std::vector<double>> chunk_targets);

  /// The accumulated Gram matrix X^T X (full, symmetric) and target t's
  /// X^T y — what solve() factors, exposed for the bit-identity tests.
  linalg::Matrix gram() const;
  // Test hook: test_streaming's Gram/Xty bit-identity check against the
  // one-shot products.  xpuf-lint: allow(orphan-symbol)
  std::span<const double> xty(std::size_t t) const;

  /// Solves G w_t = Xty_t for every target via ONE Cholesky factorization,
  /// returning a targets x features coefficient matrix. Requires rows() >=
  /// features() (same underdetermined guard as solve_least_squares). Throws
  /// linalg::NumericalError if the Gram matrix is not positive definite —
  /// the streaming path has no QR fallback because the design matrix is
  /// gone.
  linalg::Matrix solve() const;

  /// Mean of target t over all accumulated rows: Xty's bias element (phi =
  /// +1 on every row) is the ascending-order sum of y from +0.0, the same
  /// order finish() in least_squares.cpp uses for mean_b.
  double target_mean(std::size_t t) const;

 private:
  std::size_t features_;
  std::size_t targets_;
  std::size_t stride_;                     // features_ rounded up to a whole AVX2 vector
  std::size_t rows_ = 0;
  std::vector<std::uint64_t> disagree_;    // upper triangle: rows with phi_i != phi_j
  std::vector<double> xty_;                // per-target X^T y, stride_ doubles each
  std::vector<std::uint64_t> columns_;     // chunk bits transposed, reused across chunks
  std::vector<std::uint64_t> signs_;       // one row's sign-bit masks, reused
};

/// Pass-2 bookkeeping of the same fit, fed the fitted predictions chunk by
/// chunk in ascending global row order. Per target it keeps the residual
/// and total sums of squares (each added in row order from +0.0) and the
/// raw threshold extrema over targets in [0, 1]: the lowest prediction on
/// a row whose target is above 0 and the highest on a row whose target is
/// below 1, by the strict compares puf::derive_thresholds runs. So every
/// value equals one loop over the materialized rows, for any chunking. The
/// AVX2 build takes four targets per vector: the extrema update by
/// compare-and-select (a tie or a NaN keeps the earlier value, as the
/// branches do) and each lane keeps its own target's sum chains.
class StreamingResiduals {
 public:
  /// `means[t]` is target t's mean over all rows (the total sum of squares
  /// is taken about it).
  explicit StreamingResiduals(std::vector<double> means);

  /// Folds one chunk: `pred` holds its predictions row-major, one per
  /// target per row; `chunk_targets[t]` the matching rows of target t.
  void accumulate(std::span<const double> pred,
                  std::span<const std::vector<double>> chunk_targets);

  /// +inf when no row had target t above 0.
  double lowest_above_zero(std::size_t t) const;
  /// -inf when no row had target t below 1.
  double highest_below_one(std::size_t t) const;
  /// 1 - rss / tss, or 0 when the target never varied (tss == 0).
  double r_squared(std::size_t t) const;

 private:
  std::vector<double> mean_;
  std::vector<double> low_;
  std::vector<double> high_;
  std::vector<double> rss_;
  std::vector<double> tss_;
};

}  // namespace xpuf::ml
