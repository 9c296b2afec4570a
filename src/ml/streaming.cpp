#include "ml/streaming.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/vector.hpp"

namespace xpuf::ml {

namespace {

/// In-place 64 x 64 bit-matrix transpose: afterwards bit r of a[c] is what
/// bit c of a[r] was. At each width j the two off-diagonal j x j blocks of
/// every 2j x 2j block trade places (Hacker's Delight, section 7-3).
void transpose64(std::uint64_t* a) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & mask;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

/// Set bits of a XOR b over n words, counted with shifts and masks: the
/// baseline ISA has no popcount instruction, so std::popcount would become
/// a library call per word.
std::uint64_t popcount_xor(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    std::uint64_t x = a[w] ^ b[w];
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    total += (x * 0x0101010101010101ULL) >> 56;
  }
  return total;
}

}  // namespace

StreamingNormalEquations::StreamingNormalEquations(std::size_t features,
                                                   std::size_t targets)
    : features_(features),
      targets_(targets),
      disagree_(features * features, 0),
      xty_(targets, std::vector<double>(features, 0.0)),
      sum_y_(targets, 0.0),
      signs_(features, 0) {
  XPUF_REQUIRE(features >= 2, "streaming fit needs at least one stage plus the bias feature");
  XPUF_REQUIRE(targets > 0, "streaming fit needs at least one target");
}

void StreamingNormalEquations::accumulate(
    std::span<const std::uint64_t> parity, std::span<const std::vector<double>> chunk_targets) {
  const std::size_t stages = features_ - 1;
  const std::size_t n_words = (stages + 63) / 64;
  XPUF_REQUIRE(parity.size() % n_words == 0, "streaming accumulate: partial parity row");
  XPUF_REQUIRE(chunk_targets.size() == targets_, "streaming accumulate: target mismatch");
  const std::size_t n = parity.size() / n_words;
  for (std::size_t t = 0; t < targets_; ++t)
    XPUF_REQUIRE(chunk_targets[t].size() == n, "streaming accumulate: row mismatch");

  // Gram: transpose the chunk's bits into per-feature columns, 64 rows per
  // column word (rows past n stay zero and count as agreeing, so they add
  // nothing), then count disagreements per feature pair. The bias column
  // (feature `stages`, phi = +1) is all zeros.
  const std::size_t blocks = (n + 63) / 64;
  columns_.assign(features_ * blocks, 0);
  std::uint64_t tile[64];
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t rows_in = std::min<std::size_t>(64, n - b * 64);
    for (std::size_t wi = 0; wi < n_words; ++wi) {
      for (std::size_t q = 0; q < 64; ++q)
        tile[q] = q < rows_in ? parity[(b * 64 + q) * n_words + wi] : 0;
      transpose64(tile);
      const std::size_t bits = std::min<std::size_t>(64, stages - wi * 64);
      for (std::size_t j = 0; j < bits; ++j) columns_[(wi * 64 + j) * blocks + b] = tile[j];
    }
  }
  for (std::size_t i = 0; i < features_; ++i)
    for (std::size_t j = i + 1; j < features_; ++j)
      disagree_[i * features_ + j] +=
          popcount_xor(&columns_[i * blocks], &columns_[j * blocks], blocks);

  // X^T y: row by row in ascending order, each element adding y with the
  // row's phi sign — the per-element chain of matvec_transposed().
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint64_t* row = parity.data() + r * n_words;
    for (std::size_t c = 0; c < stages; ++c) signs_[c] = ((row[c / 64] >> (c % 64)) & 1U) << 63;
    for (std::size_t t = 0; t < targets_; ++t) {
      const std::uint64_t y = std::bit_cast<std::uint64_t>(chunk_targets[t][r]);
      double* acc = xty_[t].data();
      for (std::size_t c = 0; c < features_; ++c) acc[c] += std::bit_cast<double>(y ^ signs_[c]);
    }
  }
  for (std::size_t t = 0; t < targets_; ++t) {
    double s = sum_y_[t];
    for (const double y : chunk_targets[t]) s += y;
    sum_y_[t] = s;
  }

  rows_ += n;
}

linalg::Matrix StreamingNormalEquations::gram() const {
  // G(i, j) = agreements - disagreements, an integer well below 2^53 and
  // so exactly the double gram() accumulates.
  const double rows = static_cast<double>(rows_);
  linalg::Matrix g(features_, features_);
  for (std::size_t i = 0; i < features_; ++i) {
    g(i, i) = rows;
    for (std::size_t j = i + 1; j < features_; ++j) {
      const double v = rows - 2.0 * static_cast<double>(disagree_[i * features_ + j]);
      g(i, j) = v;
      g(j, i) = v;
    }
  }
  return g;
}

std::span<const double> StreamingNormalEquations::xty(std::size_t t) const {
  XPUF_REQUIRE(t < targets_, "xty: target index out of range");
  return xty_[t];
}

linalg::Matrix StreamingNormalEquations::solve() const {
  XPUF_REQUIRE(rows_ >= features_, "streaming fit: underdetermined system");
  const linalg::Cholesky chol(gram());
  linalg::Matrix w(targets_, features_);
  linalg::Vector rhs(features_);
  for (std::size_t t = 0; t < targets_; ++t) {
    for (std::size_t c = 0; c < features_; ++c) rhs[c] = xty_[t][c];
    const linalg::Vector wt = chol.solve(rhs);
    for (std::size_t c = 0; c < features_; ++c) w(t, c) = wt[c];
  }
  return w;
}

double StreamingNormalEquations::target_mean(std::size_t t) const {
  XPUF_REQUIRE(t < targets_, "target_mean: index out of range");
  XPUF_REQUIRE(rows_ > 0, "target_mean: no rows accumulated");
  return sum_y_[t] / static_cast<double>(rows_);
}

}  // namespace xpuf::ml
