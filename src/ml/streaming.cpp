#include "ml/streaming.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

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

/// Set bits of a XOR b over n words. The SIMD build has the popcnt
/// instruction (-mavx2 implies it); the baseline ISA does not, so there
/// std::popcount would become a library call per word and shifts and masks
/// count instead.
std::uint64_t popcount_xor(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
#if defined(__POPCNT__)
    total += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
#else
    std::uint64_t x = a[w] ^ b[w];
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    total += (x * 0x0101010101010101ULL) >> 56;
#endif
  }
  return total;
}

#if defined(__AVX2__)

/// Features per register-held block of X^T y: eight vectors of four.
constexpr std::size_t kBlockFeatures = 32;

/// kNibbleSigns.lanes[b] holds four sign-bit masks, lane k set where bit k
/// of the nibble b is: the phi signs of four consecutive features.
struct NibbleSigns {
  alignas(32) std::uint64_t lanes[16][4];
};

constexpr NibbleSigns make_nibble_signs() {
  NibbleSigns t{};
  for (std::uint64_t b = 0; b < 16; ++b)
    for (std::size_t k = 0; k < 4; ++k) t.lanes[b][k] = ((b >> k) & 1U) << 63;
  return t;
}

constexpr NibbleSigns kNibbleSigns = make_nibble_signs();

/// Adds n rows of one target's y into acc[0, 4 V), held in V registers
/// across the rows: element k gains y_r with the sign of bit k of row r's
/// `bits`, its parity word `parity[r * n_words]` shifted right by `shift`
/// and masked by `mask` (bits past the block's stages clear, so the bias
/// and padding lanes add y_r itself). Each lane adds its terms in ascending
/// row order, so every element is the scalar chain bit for bit.
template <std::size_t V>
void add_signed_rows(const std::uint64_t* parity, std::size_t n_words, std::size_t shift,
                     std::uint64_t mask, const double* y, std::size_t n, double* acc) {
  __m256d a[V];
  for (std::size_t v = 0; v < V; ++v) a[v] = _mm256_loadu_pd(acc + 4 * v);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint64_t bits = (parity[r * n_words] >> shift) & mask;
    const __m256d yr = _mm256_broadcast_sd(y + r);
    for (std::size_t v = 0; v < V; ++v) {
      const __m256d sign = _mm256_load_pd(
          reinterpret_cast<const double*>(kNibbleSigns.lanes[(bits >> (4 * v)) & 15U]));
      a[v] = _mm256_add_pd(a[v], _mm256_xor_pd(yr, sign));
    }
  }
  for (std::size_t v = 0; v < V; ++v) _mm256_storeu_pd(acc + 4 * v, a[v]);
}

/// X^T y of one target over n rows, one pass over the rows per block of
/// elements. `acc` has room for whole vectors past features.
void add_target_rows(const std::uint64_t* parity, std::size_t n_words, std::size_t stages,
                     std::size_t features, const double* y, std::size_t n, double* acc) {
  // Blocks of kBlockFeatures start at multiples of 32, so their stage bits
  // stay in one word. The last block also takes up to four features past
  // that, the bias among them, when its stage bits still stay in its word;
  // otherwise those few form a block of their own at a word's start. So
  // every block starts below `stages`.
  for (std::size_t c0 = 0, len = 0; c0 < features; c0 += len) {
    len = features - c0 <= kBlockFeatures + 4 && c0 % 64 + (stages - c0) <= 64
              ? features - c0
              : kBlockFeatures;
    const std::size_t bits = std::min(len, stages - c0);
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    const std::uint64_t* p = parity + c0 / 64;
    const std::size_t shift = c0 % 64;
    double* a = acc + c0;
    switch ((len + 3) / 4) {
      case 1: add_signed_rows<1>(p, n_words, shift, mask, y, n, a); break;
      case 2: add_signed_rows<2>(p, n_words, shift, mask, y, n, a); break;
      case 3: add_signed_rows<3>(p, n_words, shift, mask, y, n, a); break;
      case 4: add_signed_rows<4>(p, n_words, shift, mask, y, n, a); break;
      case 5: add_signed_rows<5>(p, n_words, shift, mask, y, n, a); break;
      case 6: add_signed_rows<6>(p, n_words, shift, mask, y, n, a); break;
      case 7: add_signed_rows<7>(p, n_words, shift, mask, y, n, a); break;
      case 8: add_signed_rows<8>(p, n_words, shift, mask, y, n, a); break;
      default: add_signed_rows<9>(p, n_words, shift, mask, y, n, a); break;
    }
  }
}

#endif  // __AVX2__

}  // namespace

StreamingNormalEquations::StreamingNormalEquations(std::size_t features,
                                                   std::size_t targets)
    : features_(features),
      targets_(targets),
      stride_((features + 3) / 4 * 4),
      disagree_(features * features, 0),
      xty_(targets * stride_, 0.0),
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

  // X^T y: each element adds y with the row's phi sign in ascending row
  // order — the per-element chain of matvec_transposed(). The bias element
  // (sign never set) is the running sum of y.
#if defined(__AVX2__)
  for (std::size_t t = 0; t < targets_; ++t)
    add_target_rows(parity.data(), n_words, stages, features_, chunk_targets[t].data(), n,
                    xty_.data() + t * stride_);
#else
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint64_t* row = parity.data() + r * n_words;
    for (std::size_t c = 0; c < stages; ++c) signs_[c] = ((row[c / 64] >> (c % 64)) & 1U) << 63;
    for (std::size_t t = 0; t < targets_; ++t) {
      const std::uint64_t y = std::bit_cast<std::uint64_t>(chunk_targets[t][r]);
      double* acc = xty_.data() + t * stride_;
      for (std::size_t c = 0; c < features_; ++c) acc[c] += std::bit_cast<double>(y ^ signs_[c]);
    }
  }
#endif

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
  return {xty_.data() + t * stride_, features_};
}

linalg::Matrix StreamingNormalEquations::solve() const {
  XPUF_REQUIRE(rows_ >= features_, "streaming fit: underdetermined system");
  const linalg::Cholesky chol(gram());
  linalg::Matrix w(targets_, features_);
  linalg::Vector rhs(features_);
  for (std::size_t t = 0; t < targets_; ++t) {
    for (std::size_t c = 0; c < features_; ++c) rhs[c] = xty_[t * stride_ + c];
    const linalg::Vector wt = chol.solve(rhs);
    for (std::size_t c = 0; c < features_; ++c) w(t, c) = wt[c];
  }
  return w;
}

double StreamingNormalEquations::target_mean(std::size_t t) const {
  XPUF_REQUIRE(t < targets_, "target_mean: index out of range");
  XPUF_REQUIRE(rows_ > 0, "target_mean: no rows accumulated");
  return xty_[t * stride_ + features_ - 1] / static_cast<double>(rows_);
}

StreamingResiduals::StreamingResiduals(std::vector<double> means)
    : mean_(std::move(means)),
      low_(mean_.size(), std::numeric_limits<double>::infinity()),
      high_(mean_.size(), -std::numeric_limits<double>::infinity()),
      rss_(mean_.size(), 0.0),
      tss_(mean_.size(), 0.0) {
  XPUF_REQUIRE(!mean_.empty(), "residual pass needs at least one target");
}

void StreamingResiduals::accumulate(std::span<const double> pred,
                                    std::span<const std::vector<double>> chunk_targets) {
  const std::size_t targets = mean_.size();
  XPUF_REQUIRE(chunk_targets.size() == targets, "residual accumulate: target mismatch");
  XPUF_REQUIRE(pred.size() % targets == 0, "residual accumulate: partial prediction row");
  const std::size_t n = pred.size() / targets;
  for (std::size_t t = 0; t < targets; ++t)
    XPUF_REQUIRE(chunk_targets[t].size() == n, "residual accumulate: row mismatch");

  std::size_t t0 = 0;
#if defined(__AVX2__)
  // Four targets per vector, rows in ascending order: lane k is target
  // t0 + k's loop below, the branches turned into compare-and-select.
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d neg_inf = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  for (; t0 + 4 <= targets; t0 += 4) {
    const double* y0 = chunk_targets[t0].data();
    const double* y1 = chunk_targets[t0 + 1].data();
    const double* y2 = chunk_targets[t0 + 2].data();
    const double* y3 = chunk_targets[t0 + 3].data();
    const __m256d mean = _mm256_loadu_pd(mean_.data() + t0);
    __m256d low = _mm256_loadu_pd(low_.data() + t0);
    __m256d high = _mm256_loadu_pd(high_.data() + t0);
    __m256d rss = _mm256_loadu_pd(rss_.data() + t0);
    __m256d tss = _mm256_loadu_pd(tss_.data() + t0);
    for (std::size_t r = 0; r < n; ++r) {
      const __m256d pr = _mm256_loadu_pd(pred.data() + r * targets + t0);
      const __m256d y = _mm256_set_pd(y3[r], y2[r], y1[r], y0[r]);
      // A row whose y fails the test offers +/-inf, which never wins the
      // strict compare. vminpd(a, b) is a < b ? a : b and vmaxpd(a, b) is
      // a > b ? a : b, so a tie or a NaN keeps the earlier value.
      const __m256d low_offer = _mm256_blendv_pd(inf, pr, _mm256_cmp_pd(y, zero, _CMP_GT_OQ));
      const __m256d high_offer = _mm256_blendv_pd(neg_inf, pr, _mm256_cmp_pd(y, one, _CMP_LT_OQ));
      low = _mm256_min_pd(low_offer, low);
      high = _mm256_max_pd(high_offer, high);
      const __m256d e = _mm256_sub_pd(pr, y);
      rss = _mm256_add_pd(rss, _mm256_mul_pd(e, e));
      const __m256d d = _mm256_sub_pd(y, mean);
      tss = _mm256_add_pd(tss, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(low_.data() + t0, low);
    _mm256_storeu_pd(high_.data() + t0, high);
    _mm256_storeu_pd(rss_.data() + t0, rss);
    _mm256_storeu_pd(tss_.data() + t0, tss);
  }
#endif
  for (std::size_t t = t0; t < targets; ++t) {
    const double* y = chunk_targets[t].data();
    double low = low_[t], high = high_[t], rss = rss_[t], tss = tss_[t];
    for (std::size_t r = 0; r < n; ++r) {
      const double pr = pred[r * targets + t];
      if (y[r] > 0.0 && pr < low) low = pr;
      if (y[r] < 1.0 && pr > high) high = pr;
      const double e = pr - y[r];
      rss += e * e;
      const double d = y[r] - mean_[t];
      tss += d * d;
    }
    low_[t] = low;
    high_[t] = high;
    rss_[t] = rss;
    tss_[t] = tss;
  }
}

double StreamingResiduals::lowest_above_zero(std::size_t t) const {
  XPUF_REQUIRE(t < low_.size(), "lowest_above_zero: target index out of range");
  return low_[t];
}

double StreamingResiduals::highest_below_one(std::size_t t) const {
  XPUF_REQUIRE(t < high_.size(), "highest_below_one: target index out of range");
  return high_[t];
}

double StreamingResiduals::r_squared(std::size_t t) const {
  XPUF_REQUIRE(t < rss_.size(), "r_squared: target index out of range");
  return tss_[t] > 0.0 ? 1.0 - rss_[t] / tss_[t] : 0.0;
}

}  // namespace xpuf::ml
