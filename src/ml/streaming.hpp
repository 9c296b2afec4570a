// Streaming normal-equations accumulator: the O(d^2)-memory core of the
// fixed-memory enrollment pipeline.
//
// The materialized path (ml::LinearRegression over a fully built Dataset)
// computes W = (X^T X)^{-1} X^T y after holding all n rows of X in
// RAM. This accumulator consumes X in row chunks and keeps only
//
//   G   = X^T X      (d x d, as integer disagreement counts, see below)
//   Xty = X^T y_t    (d per target)
//   sum(y_t), n      (for target means / R^2 bookkeeping)
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
//    ascending row order reproduces it bit for bit.
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

  /// Mean of target t over all accumulated rows (ascending-order sum, the
  /// same order finish() in least_squares.cpp uses for mean_b).
  double target_mean(std::size_t t) const;

 private:
  std::size_t features_;
  std::size_t targets_;
  std::size_t rows_ = 0;
  std::vector<std::uint64_t> disagree_;    // upper triangle: rows with phi_i != phi_j
  std::vector<std::vector<double>> xty_;   // per-target X^T y
  std::vector<double> sum_y_;              // per-target running sum
  std::vector<std::uint64_t> columns_;     // chunk bits transposed, reused across chunks
  std::vector<std::uint64_t> signs_;       // one row's sign-bit masks, reused
};

}  // namespace xpuf::ml
