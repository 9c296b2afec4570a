#include "sim/linear.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"

namespace xpuf::sim {

void feature_fill(const Challenge& challenge, double* out) {
  XPUF_REQUIRE(out != nullptr, "feature_fill needs a buffer of size() + 1 doubles");
  const std::size_t k = challenge.size();
  // Suffix products phi_i = (1 - 2 c_i) * phi_{i+1} are (-1)^(c_i ^ ... ^
  // c_{k-1}): a running XOR parity sets each entry's sign bit.
  std::uint64_t parity = 0;
  out[k] = 1.0;
  for (std::size_t ii = k; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    parity ^= static_cast<std::uint64_t>(challenge[i] != 0);
    out[i] = parity_sign(parity);
  }
}

// An empty batch is a legal no-op block (empty scans are no-ops too).
std::vector<Challenge> random_challenges(std::size_t stages, std::size_t count, Rng& rng) {
  XPUF_REQUIRE(stages > 0, "challenges need at least one stage");
  std::vector<Challenge> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(random_challenge(stages, rng));
  return out;
}

void random_packed_challenge_into(std::span<std::uint64_t> row, std::size_t stages,
                                  Rng& rng) {
  XPUF_REQUIRE(stages > 0, "a challenge needs at least one stage");
  XPUF_REQUIRE(row.size() == packed_words(stages), "packed row needs packed_words(stages) words");
  for (std::size_t w = 0; w < row.size(); ++w) {
    const std::size_t bits = std::min<std::size_t>(64, stages - w * 64);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < bits; ++j)
      word |= static_cast<std::uint64_t>(rng.bernoulli()) << j;
    row[w] = word;
  }
}

void unpack_challenge_into(std::span<const std::uint64_t> row, std::size_t stages,
                           Challenge& out) {
  XPUF_REQUIRE(stages > 0, "a challenge needs at least one stage");
  XPUF_REQUIRE(row.size() == packed_words(stages), "packed row needs packed_words(stages) words");
  out.resize(stages);
  for (std::size_t i = 0; i < stages; ++i)
    out[i] = static_cast<std::uint8_t>((row[i / 64] >> (i % 64)) & 1U);
}

void pack_challenge_into(const Challenge& challenge, std::span<std::uint64_t> row) {
  XPUF_REQUIRE(!challenge.empty(), "a challenge needs at least one stage");
  XPUF_REQUIRE(row.size() == packed_words(challenge.size()),
               "packed row needs packed_words(stages) words");
  std::fill(row.begin(), row.end(), 0);
  for (std::size_t i = 0; i < challenge.size(); ++i)
    row[i / 64] |= static_cast<std::uint64_t>(challenge[i] != 0) << (i % 64);
}

namespace {

/// The eight bytes at `p` as a little-endian word, and its inverse. Built
/// from explicit shifts, so every host reads and writes the same bytes; a
/// little-endian host fuses each into one unaligned load or store.
std::uint64_t load_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(p[0]) | static_cast<std::uint64_t>(p[1]) << 8 |
         static_cast<std::uint64_t>(p[2]) << 16 | static_cast<std::uint64_t>(p[3]) << 24 |
         static_cast<std::uint64_t>(p[4]) << 32 | static_cast<std::uint64_t>(p[5]) << 40 |
         static_cast<std::uint64_t>(p[6]) << 48 | static_cast<std::uint64_t>(p[7]) << 56;
}

void store_le64(std::uint64_t w, std::uint8_t* p) {
  p[0] = static_cast<std::uint8_t>(w);
  p[1] = static_cast<std::uint8_t>(w >> 8);
  p[2] = static_cast<std::uint8_t>(w >> 16);
  p[3] = static_cast<std::uint8_t>(w >> 24);
  p[4] = static_cast<std::uint8_t>(w >> 32);
  p[5] = static_cast<std::uint8_t>(w >> 40);
  p[6] = static_cast<std::uint8_t>(w >> 48);
  p[7] = static_cast<std::uint8_t>(w >> 56);
}

}  // namespace

void append_packed_bytes(std::span<const std::uint64_t> rows, std::size_t stages,
                         std::vector<std::uint8_t>& out) {
  XPUF_REQUIRE(stages > 0, "a challenge needs at least one stage");
  const std::size_t stride = packed_words(stages);
  XPUF_REQUIRE(rows.size() % stride == 0, "packed rows need packed_words(stages) words each");
  // A row is `full` whole words, then `tail` bytes of its last word.
  const std::size_t row_bytes = packed_bytes(stages);
  const std::size_t full = row_bytes / 8;
  const std::size_t tail = row_bytes % 8;
  const std::size_t at = out.size();
  out.resize(at + rows.size() / stride * row_bytes);
  std::uint8_t* p = out.data() + at;
  for (std::size_t r = 0; r < rows.size(); r += stride, p += row_bytes) {
    for (std::size_t w = 0; w < full; ++w) store_le64(rows[r + w], p + 8 * w);
    for (std::size_t b = 0; b < tail; ++b)
      p[8 * full + b] = static_cast<std::uint8_t>(rows[r + full] >> (8 * b));
  }
}

bool read_packed_bytes(const std::uint8_t* bytes, std::size_t stages,
                       std::span<std::uint64_t> rows) {
  XPUF_REQUIRE(stages > 0, "a challenge needs at least one stage");
  const std::size_t stride = packed_words(stages);
  XPUF_REQUIRE(rows.size() % stride == 0, "packed rows need packed_words(stages) words each");
  XPUF_REQUIRE(bytes != nullptr || rows.empty(), "read_packed_bytes: null bytes");
  const std::size_t row_bytes = packed_bytes(stages);
  const std::size_t full = row_bytes / 8;
  const std::size_t tail = row_bytes % 8;
  // Stage bits in a row's last word (1..64); any bit read above them is set
  // in the byte form only, so `above` collects those across every row.
  const std::size_t top = stages - (stride - 1) * 64;
  std::uint64_t above = 0;
  for (std::size_t r = 0; r < rows.size(); r += stride, bytes += row_bytes) {
    for (std::size_t w = 0; w < full; ++w) rows[r + w] = load_le64(bytes + 8 * w);
    if (tail != 0) {
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < tail; ++b)
        word |= static_cast<std::uint64_t>(bytes[8 * full + b]) << (8 * b);
      rows[r + full] = word;
    }
    if (top < 64) above |= rows[r + stride - 1] >> top;
  }
  return above == 0;
}

void suffix_parity_words(std::span<const std::uint64_t> words, std::size_t stages,
                         std::span<std::uint64_t> out) {
  XPUF_REQUIRE(stages >= 1, "packed challenges need at least one stage");
  const std::size_t n_words = packed_words(stages);
  XPUF_REQUIRE(words.size() % n_words == 0, "packed rows need packed_words(stages) words each");
  XPUF_REQUIRE(out.size() == words.size(), "parity output must match the packed rows");
  // The last word holds 1..64 stage bits; the mask keeps exactly those
  // (a shift by 64 - tail, never by 64, when stages % 64 == 0).
  const std::size_t tail = stages - (n_words - 1) * 64;
  const std::uint64_t tail_mask = ~0ULL >> (64 - tail);
  for (std::size_t r = 0; r < words.size(); r += n_words) {
    // Walk words high to low; `carry` is the parity of every higher stage
    // bit, broadcast to all 64 bits so one XOR folds it into the word.
    std::uint64_t carry = 0;
    for (std::size_t ww = n_words; ww > 0; --ww) {
      const std::size_t wi = r + ww - 1;
      const std::uint64_t w = ww == n_words ? words[wi] & tail_mask : words[wi];
      const std::uint64_t s = suffix_parity(w) ^ carry;
      carry = 0 - (s & 1U);
      out[wi] = s;
    }
  }
}

std::vector<std::uint64_t> challenge_parity(const std::vector<Challenge>& challenges,
                                            std::size_t stages) {
  XPUF_REQUIRE(stages > 0, "a challenge needs at least one stage");
  const std::size_t n_words = packed_words(stages);
  std::vector<std::uint64_t> words(challenges.size() * n_words);
  for (std::size_t r = 0; r < challenges.size(); ++r) {
    XPUF_REQUIRE(challenges[r].size() == stages, "challenge length != stage count");
    pack_challenge_into(challenges[r], {words.data() + r * n_words, n_words});
  }
  std::vector<std::uint64_t> parity(words.size());
  suffix_parity_words(words, stages, parity);
  return parity;
}

namespace {

/// Word wi of a row holds stages 64 wi .. 64 wi + 63; the last one only the
/// `stages - 64 (n_words - 1)` that exist.
std::size_t word_bits(std::size_t wi, std::size_t n_words, std::size_t stages) {
  return wi + 1 == n_words ? stages - wi * 64 : 64;
}

#if defined(__AVX2__)

/// 4 V candidate rows, one per vector lane: each lane adds w_i with the
/// sign bit of its own parity bit i, in ascending i, then w_stages. vaddpd
/// and vxorpd are per-lane IEEE/bitwise operations, so every lane is the
/// scalar dot bit for bit; V independent add chains hide the vaddpd
/// latency. `rows` holds exactly 4 V valid row indices; the first `m` lanes
/// are stored.
template <std::size_t V>
void parity_rows_avx2(const double* w, std::size_t stages, const std::uint64_t* parity,
                      const std::size_t* rows, std::size_t m, double* out) {
  const std::size_t n_words = packed_words(stages);
  __m256d acc[V];
  for (std::size_t v = 0; v < V; ++v) acc[v] = _mm256_setzero_pd();
  for (std::size_t wi = 0; wi < n_words; ++wi) {
    // Lane l of bits[v] is row rows[4 v + l]'s parity word; shifting right
    // one bit per stage brings bit i to bit 0, and a left shift by 63 turns
    // it into a lone sign bit.
    __m256i bits[V];
    for (std::size_t v = 0; v < V; ++v) {
      const std::size_t* r = rows + 4 * v;
      bits[v] = _mm256_set_epi64x(
          static_cast<long long>(parity[r[3] * n_words + wi]),
          static_cast<long long>(parity[r[2] * n_words + wi]),
          static_cast<long long>(parity[r[1] * n_words + wi]),
          static_cast<long long>(parity[r[0] * n_words + wi]));
    }
    const double* wp = w + wi * 64;
    const std::size_t count = word_bits(wi, n_words, stages);
    for (std::size_t j = 0; j < count; ++j) {
      const __m256d wj = _mm256_broadcast_sd(wp + j);
      for (std::size_t v = 0; v < V; ++v) {
        const __m256d sign = _mm256_castsi256_pd(_mm256_slli_epi64(bits[v], 63));
        bits[v] = _mm256_srli_epi64(bits[v], 1);
        acc[v] = _mm256_add_pd(acc[v], _mm256_xor_pd(wj, sign));
      }
    }
  }
  const __m256d last = _mm256_broadcast_sd(w + stages);
  double tmp[4 * V];
  for (std::size_t v = 0; v < V; ++v) _mm256_storeu_pd(tmp + 4 * v, _mm256_add_pd(acc[v], last));
  for (std::size_t k = 0; k < m; ++k) out[k] = tmp[k];
}

#else

/// The portable kernel: one row at a time, the same operations in the same
/// order as the AVX2 lanes.
void parity_row_scalar(const double* w, std::size_t stages, const std::uint64_t* parity,
                       double* out) {
  const std::size_t n_words = packed_words(stages);
  double acc = 0.0;
  for (std::size_t wi = 0; wi < n_words; ++wi) {
    std::uint64_t bits = parity[wi];
    const double* wp = w + wi * 64;
    const std::size_t count = word_bits(wi, n_words, stages);
    for (std::size_t j = 0; j < count; ++j, bits >>= 1)
      acc += std::bit_cast<double>(std::bit_cast<std::uint64_t>(wp[j]) ^ (bits << 63));
  }
  *out = acc + w[stages];
}

#endif  // __AVX2__

}  // namespace

void parity_dots(std::span<const double> weights, std::span<const std::uint64_t> parity,
                 std::span<const std::size_t> rows, std::span<double> out) {
  XPUF_REQUIRE(weights.size() >= 2, "parity_dots needs at least one stage weight plus the bias");
  const std::size_t stages = weights.size() - 1;
  const std::size_t n_words = packed_words(stages);
  XPUF_REQUIRE(parity.size() % n_words == 0, "parity rows need packed_words(stages) words each");
  XPUF_REQUIRE(out.size() >= rows.size(), "parity_dots output shorter than the row list");
  const std::size_t n_rows = parity.size() / n_words;
  for (const std::size_t r : rows) XPUF_REQUIRE(r < n_rows, "parity_dots row index out of range");
  const std::size_t m = rows.size();
  if (m == 0) return;
  const double* w = weights.data();
  const std::uint64_t* p = parity.data();
  const std::size_t* idx = rows.data();
  double* o = out.data();
#if defined(__AVX2__)
  std::size_t k = 0;
  for (; k + 16 <= m; k += 16) parity_rows_avx2<4>(w, stages, p, idx + k, 16, o + k);
  if (k == m) return;
  // 1..15 rows left: one pass of just enough vectors, padding the index
  // list with a valid row whose lanes are never stored.
  std::size_t padded[16];
  const std::size_t rest = m - k;
  for (std::size_t q = 0; q < 16; ++q) padded[q] = idx[k + (q < rest ? q : 0)];
  switch ((rest + 3) / 4) {
    case 1: parity_rows_avx2<1>(w, stages, p, padded, rest, o + k); break;
    case 2: parity_rows_avx2<2>(w, stages, p, padded, rest, o + k); break;
    case 3: parity_rows_avx2<3>(w, stages, p, padded, rest, o + k); break;
    default: parity_rows_avx2<4>(w, stages, p, padded, rest, o + k); break;
  }
#else
  for (std::size_t k = 0; k < m; ++k) parity_row_scalar(w, stages, p + idx[k] * n_words, o + k);
#endif
}

double DeviceLinearView::delay(std::span<const double> phi) const {
  XPUF_REQUIRE(phi.size() == weights.size(), "feature length mismatch");
  // linalg::dot is the ascending-order accumulation the parity tiles and
  // parity_dots reproduce per output element, which is what makes batch ==
  // scalar a bit-level claim.
  return linalg::dot(weights.span(), phi);
}

double DeviceLinearView::one_probability(std::span<const double> phi) const {
  return normal_cdf(delay(phi) / noise_sigma);
}

ChipLinearView::ChipLinearView(std::vector<DeviceLinearView> devices) {
  XPUF_REQUIRE(!devices.empty(), "chip view needs at least one device");
  const std::size_t f = devices.front().features();
  // Transposed, so the tile kernels' inner PUF loop is contiguous: row i of
  // weights_t_ holds every device's weight for feature i. Rows are
  // zero-padded to a four-lane stride so the AVX2 kernels can issue whole
  // vector loads; the padding lanes accumulate zeros and are never stored.
  weights_t_ = linalg::Matrix(f, (devices.size() + 3) / 4 * 4);
  noise_sigmas_.reserve(devices.size());
  for (std::size_t p = 0; p < devices.size(); ++p) {
    XPUF_REQUIRE(devices[p].features() == f, "mixed stage counts in chip view");
    const double* w = devices[p].weights.data();
    for (std::size_t i = 0; i < f; ++i) weights_t_(i, p) = w[i];
    noise_sigmas_.push_back(devices[p].noise_sigma);
  }
}

double ChipLinearView::noise_sigma(std::size_t puf_index) const {
  XPUF_REQUIRE(puf_index < noise_sigmas_.size(), "PUF index out of range");
  return noise_sigmas_[puf_index];
}

namespace {

/// The parity-word tile, portable: one row at a time, every output element
/// adding w(p, i) with the sign bit of parity bit i in ascending i, then the
/// bias weight. `div`, when non-null, holds n divisors applied before the
/// store.
void parity_tile_scalar(const linalg::Matrix& weights_t, std::size_t n, std::size_t stages,
                        const std::uint64_t* parity, std::size_t begin, std::size_t end,
                        double* out, const double* div) {
  const std::size_t n_words = packed_words(stages);
  std::vector<double> acc(n);
  for (std::size_t r = begin; r < end; ++r) {
    for (std::size_t p = 0; p < n; ++p) acc[p] = 0.0;
    const std::uint64_t* row = parity + r * n_words;
    for (std::size_t i = 0; i < stages; ++i) {
      const std::uint64_t sign = ((row[i / 64] >> (i % 64)) & 1U) << 63;
      const double* wt = weights_t.row(i);
      for (std::size_t p = 0; p < n; ++p)
        acc[p] += std::bit_cast<double>(std::bit_cast<std::uint64_t>(wt[p]) ^ sign);
    }
    const double* bias = weights_t.row(stages);
    double* orow = out + (r - begin) * n;
    for (std::size_t p = 0; p < n; ++p) {
      const double d = acc[p] + bias[p];
      orow[p] = div != nullptr ? d / div[p] : d;
    }
  }
}

#if defined(__AVX2__)

/// Inner body of the AVX2 parity tile: R challenge rows x V four-wide lanes
/// over the zero-padded PUF dimension. Each output element owns one vector
/// lane and adds its weights in ascending i, each with row q's parity bit i
/// moved into the sign position (the parity word broadcast to all lanes,
/// shifted one bit per stage) and XOR-ed on — the exact scalar chain, since
/// vxorpd flips only the sign bit and vaddpd is a per-lane IEEE add with
/// contraction pinned off. Unrolling rows keeps R x V independent add chains
/// in flight, which hides the four-cycle vaddpd latency; the optional
/// divide on the way out (the noise-sigma step) is vdivpd, the same single
/// IEEE division per element the scalar kernel performs.
template <std::size_t V, std::size_t R>
inline void avx2_parity_rows(const double* w0, std::size_t stages, std::size_t stride,
                             const std::uint64_t* const* parity, const double* div,
                             double* tmp) {
  const std::size_t n_words = packed_words(stages);
  __m256d acc[R][V];
  for (std::size_t q = 0; q < R; ++q)
    for (std::size_t v = 0; v < V; ++v) acc[q][v] = _mm256_setzero_pd();
  const double* wt = w0;
  for (std::size_t wi = 0; wi < n_words; ++wi) {
    __m256i bits[R];
    for (std::size_t q = 0; q < R; ++q)
      bits[q] = _mm256_set1_epi64x(static_cast<long long>(parity[q][wi]));
    const std::size_t count = word_bits(wi, n_words, stages);
    for (std::size_t j = 0; j < count; ++j, wt += stride) {
      for (std::size_t q = 0; q < R; ++q) {
        const __m256d sign = _mm256_castsi256_pd(_mm256_slli_epi64(bits[q], 63));
        bits[q] = _mm256_srli_epi64(bits[q], 1);
        for (std::size_t v = 0; v < V; ++v)
          acc[q][v] =
              _mm256_add_pd(acc[q][v], _mm256_xor_pd(_mm256_loadu_pd(wt + 4 * v), sign));
      }
    }
  }
  // phi_stages = +1: the bias row adds unsigned; `wt` now points at it.
  for (std::size_t q = 0; q < R; ++q)
    for (std::size_t v = 0; v < V; ++v) {
      __m256d a = _mm256_add_pd(acc[q][v], _mm256_loadu_pd(wt + 4 * v));
      if (div != nullptr) a = _mm256_div_pd(a, _mm256_loadu_pd(div + 4 * v));
      _mm256_storeu_pd(tmp + (q * V + v) * 4, a);
    }
}

/// AVX2 parity tile for PUF counts up to 4 * V: four rows per pass, two for
/// V == 3 to stay within sixteen ymm registers.
template <std::size_t V>
[[gnu::noinline]] void parity_tile_avx2(const linalg::Matrix& weights_t, std::size_t n,
                                        std::size_t stages, const std::uint64_t* parity,
                                        std::size_t begin, std::size_t end, double* out,
                                        const double* div) {
  const std::size_t n_words = packed_words(stages);
  const std::size_t stride = weights_t.cols();
  const double* w0 = weights_t.row(0);
  constexpr std::size_t kRows = V >= 3 ? 2 : 4;
  double tmp[kRows * V * 4];
  const std::uint64_t* rows[kRows];
  std::size_t r = begin;
  for (; r + kRows <= end; r += kRows) {
    for (std::size_t q = 0; q < kRows; ++q) rows[q] = parity + (r + q) * n_words;
    avx2_parity_rows<V, kRows>(w0, stages, stride, rows, div, tmp);
    double* orow = out + (r - begin) * n;
    for (std::size_t q = 0; q < kRows; ++q)
      for (std::size_t p = 0; p < n; ++p) orow[q * n + p] = tmp[q * V * 4 + p];
  }
  for (; r < end; ++r) {
    rows[0] = parity + r * n_words;
    avx2_parity_rows<V, 1>(w0, stages, stride, rows, div, tmp);
    double* orow = out + (r - begin) * n;
    for (std::size_t p = 0; p < n; ++p) orow[p] = tmp[p];
  }
}

#endif  // __AVX2__

/// Dispatches a parity tile: AVX2 for up to 12 PUFs, the portable kernel
/// otherwise. `sigmas`, when non-null, holds the n per-PUF divisors.
void parity_tile(const linalg::Matrix& weights_t, std::size_t n, std::size_t stages,
                 const std::uint64_t* parity, std::size_t begin, std::size_t end,
                 double* out, const double* sigmas) {
#if defined(__AVX2__)
  if (n <= 12) {
    // Padding lanes divide by 1.0 and are never stored.
    double lanes[12];
    const double* div = nullptr;
    if (sigmas != nullptr) {
      for (std::size_t i = 0; i < weights_t.cols(); ++i) lanes[i] = i < n ? sigmas[i] : 1.0;
      div = lanes;
    }
    switch ((n + 3) / 4) {
      case 1: parity_tile_avx2<1>(weights_t, n, stages, parity, begin, end, out, div); return;
      case 2: parity_tile_avx2<2>(weights_t, n, stages, parity, begin, end, out, div); return;
      default: parity_tile_avx2<3>(weights_t, n, stages, parity, begin, end, out, div); return;
    }
  }
#endif
  parity_tile_scalar(weights_t, n, stages, parity, begin, end, out, sigmas);
}

}  // namespace

// Row range is the caller's tile; an empty range writes nothing.
void ChipLinearView::delay_differences_into(std::span<const std::uint64_t> parity,
                                            std::size_t begin, std::size_t end,
                                            double* out) const {
  XPUF_REQUIRE(features() >= 2, "parity tiles need a chip view with at least one stage");
  const std::size_t stages = features() - 1;
  XPUF_REQUIRE(parity.size() % packed_words(stages) == 0,
               "parity rows need packed_words(stages) words each");
  XPUF_REQUIRE(begin <= end && end <= parity.size() / packed_words(stages),
               "tile range out of bounds");
  parity_tile(weights_t_, puf_count(), stages, parity.data(), begin, end, out, nullptr);
}

// Same tile contract; the sigma division rides the tile's store.
void ChipLinearView::standardized_delays_into(std::span<const std::uint64_t> parity,
                                              std::size_t begin, std::size_t end,
                                              double* out) const {
  XPUF_REQUIRE(features() >= 2, "parity tiles need a chip view with at least one stage");
  const std::size_t stages = features() - 1;
  XPUF_REQUIRE(parity.size() % packed_words(stages) == 0,
               "parity rows need packed_words(stages) words each");
  XPUF_REQUIRE(begin <= end && end <= parity.size() / packed_words(stages),
               "tile range out of bounds");
  parity_tile(weights_t_, puf_count(), stages, parity.data(), begin, end, out,
              noise_sigmas_.data());
}

// Same tile contract (checked by standardized_delays_into).
// xpuf-lint: guarded-by(standardized_delays_into)
void ChipLinearView::one_probabilities_into(std::span<const std::uint64_t> parity,
                                            std::size_t begin, std::size_t end,
                                            double* out) const {
  standardized_delays_into(parity, begin, end, out);
  const std::size_t total = (end - begin) * puf_count();
  normal_cdf_batch({out, total}, {out, total});
}

namespace {

/// Exit-table knots per unit of z: knots lie 2^-7 apart.
constexpr double kKnotsPerUnit = 128.0;

/// Cells per block of the row pass: the undecided cells of a block are
/// listed on the stack, then counted.
constexpr std::size_t kRowBlock = 64;

/// Rng::uniform of a stream whose first word is w.
double first_uniform(std::uint64_t w) { return static_cast<double>(w >> 11) * 0x1.0p-53; }

/// Rng::binomial_inversion's zero-count exit bound for n trials at
/// probability q, computed as it computes it, as the largest first word
/// >> 11 that clears it (-1 when none does). u = x * 2^-53 <= bound holds
/// exactly when the integer x is at most floor(bound * 2^53).
std::int64_t exit_limit(double n, double q) {
  const double bound = 1.0 - n * q - 0x1p-40;
  return bound < 0.0 ? -1 : static_cast<std::int64_t>(std::floor(bound * 0x1p53));
}

}  // namespace

double LazyCdfCounter::lower_cut(std::uint64_t trials) {
  XPUF_REQUIRE(trials >= 1, "a lazy CDF counter needs at least one trial");
  // Start at the quantile of the target tail mass and step down until the
  // product binomial computes, n * normal_cdf(z), clears 2^-54; normal_cdf
  // is monotone, so every z below the cut clears it too.
  const double n = static_cast<double>(trials);
  double z = normal_quantile(0x1p-54 / n);
  while (!(n * normal_cdf(z) < 0x1p-54)) z -= 0x1p-20;
  return z;
}

LazyCdfCounter::LazyCdfCounter(std::uint64_t trials) : trials_(trials) {
  const double n = static_cast<double>(trials);

  // Knot j sits at (k_lo + j) / 128; slot i covers knots [i - 1, i), slot 0
  // everything below knot 0 and slot `intervals + 1` everything from the
  // last knot up. Knot 1 is at or below the lower cut, so slot 1's bound is
  // kZeroExit too and slot 0 keeps it. The interval starting at z = 0 is
  // slot 1 - k_lo.
  const double k_lo = std::floor(lower_cut(trials) * kKnotsPerUnit) - 1.0;
  const double k_hi = std::ceil(kNormalCdfOneFrom * kKnotsPerUnit);
  const auto intervals = static_cast<std::size_t>(k_hi - k_lo);
  const auto knot = [&](std::size_t j) { return (k_lo + static_cast<double>(j)) / kKnotsPerUnit; };
  first_knot_ = knot(0);
  top_ = static_cast<double>(intervals + 1);
  mirror_from_ = static_cast<std::size_t>(1.0 - k_lo);

  std::vector<std::int64_t> own(intervals + 2, -1);
  own[0] = static_cast<std::int64_t>(kZeroExit * 0x1p53);
  own[intervals + 1] = std::int64_t{1} << 53;  // u < 1 always
  // Low side, from slot 1 up: the bound at each interval's upper knot,
  // while n p < 30 there and the bound is not negative (p only grows
  // toward 0, so no later slot has either).
  for (std::size_t i = 1; i < mirror_from_; ++i) {
    const double p = normal_cdf(knot(i));
    if (!(n * p < 30.0)) break;
    own[i] = exit_limit(n, p);
    if (own[i] < 0) break;
  }
  // Mirror side, from the top down: the bound at each interval's lower
  // knot, while binomial mirrors there (p > 0.5), n (1 - p) < 30 and the
  // bound is not negative.
  for (std::size_t i = intervals; i >= mirror_from_; --i) {
    const double p = normal_cdf(knot(i - 1));
    if (!(p > 0.5)) break;
    const double q = 1.0 - p;
    if (!(n * q < 30.0)) break;
    own[i] = exit_limit(n, q);
    if (own[i] < 0) break;
  }
  // Each slot takes the smallest limit of itself and its neighbours, or
  // none where a neighbour's exit count differs.
  limits_.resize(own.size());
  for (std::size_t i = 0; i < own.size(); ++i) {
    std::int64_t limit = own[i];
    for (const std::size_t j : {i - 1, i + 1}) {
      if (j >= own.size()) continue;  // i - 1 wraps past the end at i = 0
      limit = (j >= mirror_from_) == (i >= mirror_from_) ? std::min(limit, own[j]) : -1;
    }
    limits_[i] = limit;
  }
}

std::size_t LazyCdfCounter::slot(double z) const {
  double t = (z - first_knot_) * kKnotsPerUnit + 1.0;
  t = t > 0.0 ? t : 0.0;
  t = t < top_ ? t : top_;
  return static_cast<std::size_t>(t);
}

LazyCdfCounter::Exit LazyCdfCounter::exit_for(double z) const {
  const std::size_t s = slot(z);
  const std::int64_t limit = z == z ? limits_[s] : -1;
  // A product rather than a select: compiled as a branch on z's side of 0,
  // it mispredicts on about half of a row's cells and discards the first
  // words the row pass has in flight (a 50,000-cell scan at 10,000 trials
  // took ~2.35 ms of CPU instead of ~2.0).
  return {static_cast<double>(limit) * 0x1p-53,
          trials_ * static_cast<std::uint64_t>(s >= mirror_from_)};
}

void LazyCdfCounter::count_row(const double* z, std::size_t z_stride, std::size_t m,
                               const StreamFamily& streams, std::uint64_t first_key,
                               std::uint64_t* out) const {
  XPUF_REQUIRE(m == 0 || (z != nullptr && out != nullptr), "count_row needs z and out buffers");
  std::size_t rest[kRowBlock];
  for (std::size_t b = 0; b < m; b += kRowBlock) {
    const std::size_t e = std::min(m, b + kRowBlock);
    std::size_t n_rest = 0;
    for (std::size_t c = b; c < e; ++c) {
      const Exit x = exit_for(z[c * z_stride]);
      out[c] = x.count;
      rest[n_rest] = c;
      n_rest += first_uniform(streams.first_u64(first_key + c)) <= x.bound ? 0 : 1;
    }
    for (std::size_t k = 0; k < n_rest; ++k) {
      const std::size_t r = rest[k];
      out[r] = streams.stream(first_key + r).binomial(trials_, normal_cdf(z[r * z_stride]));
    }
  }
}

}  // namespace xpuf::sim
