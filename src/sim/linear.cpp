#include "sim/linear.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include <algorithm>

#include "common/error.hpp"
#include "common/math.hpp"

namespace xpuf::sim {

namespace {

/// Bit i of the result is the XOR of bits i..63 of x — the within-word
/// suffix parity, by an xor-shift cascade toward the low end.
std::uint64_t suffix_parity(std::uint64_t x) {
  x ^= x >> 1;
  x ^= x >> 2;
  x ^= x >> 4;
  x ^= x >> 8;
  x ^= x >> 16;
  x ^= x >> 32;
  return x;
}

}  // namespace

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

// Same: an empty block is legal and yields no rows.
FeatureBlock::FeatureBlock(std::vector<Challenge> challenges)
    : challenges_(std::move(challenges)) {
  if (challenges_.empty()) return;
  stages_ = challenges_.front().size();
  XPUF_REQUIRE(stages_ > 0, "feature block of zero-stage challenges");
  phi_ = linalg::Matrix(challenges_.size(), stages_ + 1);
  for (std::size_t r = 0; r < challenges_.size(); ++r) {
    XPUF_REQUIRE(challenges_[r].size() == stages_, "mixed challenge lengths in batch");
    feature_fill(challenges_[r], phi_.row(r));
  }
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

void append_packed_bytes(std::span<const std::uint64_t> row, std::size_t stages,
                         std::vector<std::uint8_t>& out) {
  XPUF_REQUIRE(stages > 0, "a challenge needs at least one stage");
  XPUF_REQUIRE(row.size() == packed_words(stages), "packed row needs packed_words(stages) words");
  for (std::size_t b = 0; b < packed_bytes(stages); ++b)
    out.push_back(static_cast<std::uint8_t>(row[b / 8] >> (8 * (b % 8))));
}

bool read_packed_bytes(const std::uint8_t* bytes, std::size_t stages,
                       std::span<std::uint64_t> row) {
  XPUF_REQUIRE(stages > 0, "a challenge needs at least one stage");
  XPUF_REQUIRE(row.size() == packed_words(stages), "packed row needs packed_words(stages) words");
  std::fill(row.begin(), row.end(), 0);
  const std::size_t n = packed_bytes(stages);
  for (std::size_t b = 0; b < n; ++b)
    row[b / 8] |= static_cast<std::uint64_t>(bytes[b]) << (8 * (b % 8));
  return stages % 8 == 0 || (bytes[n - 1] >> (stages % 8)) == 0;
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
  // linalg::dot is the ascending-order accumulation matmul_nt/matvec use per
  // output element, which is what makes batch == scalar a bit-level claim.
  return linalg::dot(weights.span(), phi);
}

double DeviceLinearView::one_probability(std::span<const double> phi) const {
  return normal_cdf(delay(phi) / noise_sigma);
}

linalg::Vector DeviceLinearView::delay_differences(const FeatureBlock& block) const {
  linalg::Vector out(block.size());
  delay_differences_into(block, 0, block.size(), out.data());
  return out;
}

linalg::Vector DeviceLinearView::one_probabilities(const FeatureBlock& block) const {
  linalg::Vector out(block.size());
  one_probabilities_into(block, 0, block.size(), out.data());
  return out;
}

// Row range is the caller's tile; an empty range writes nothing.
void DeviceLinearView::delay_differences_into(const FeatureBlock& block, std::size_t begin,
                                              std::size_t end, double* out) const {
  XPUF_REQUIRE(end <= block.size() && begin <= end, "tile range out of bounds");
  XPUF_REQUIRE(begin == end || block.features() == weights.size(),
               "feature length mismatch");
  for (std::size_t r = begin; r < end; ++r)
    out[r - begin] = delay({block.row(r), weights.size()});
}

// Same tile contract as delay_differences_into.
// xpuf-lint: allow(require-guard)
void DeviceLinearView::one_probabilities_into(const FeatureBlock& block, std::size_t begin,
                                              std::size_t end, double* out) const {
  delay_differences_into(block, begin, end, out);
  const std::size_t n = end - begin;
  for (std::size_t i = 0; i < n; ++i) out[i] /= noise_sigma;
  normal_cdf_batch({out, n}, {out, n});
}

ChipLinearView::ChipLinearView(std::vector<DeviceLinearView> devices) {
  XPUF_REQUIRE(!devices.empty(), "chip view needs at least one device");
  const std::size_t f = devices.front().features();
  weights_ = linalg::Matrix(devices.size(), f);
  // The transposed copy makes the tile kernels' inner PUF loop contiguous:
  // row i of weights_t_ holds every device's weight for feature i. Rows are
  // zero-padded to a four-lane stride so the AVX2 kernels can issue whole
  // vector loads; the padding lanes accumulate zeros and are never stored.
  weights_t_ = linalg::Matrix(f, (devices.size() + 3) / 4 * 4);
  noise_sigmas_.reserve(devices.size());
  for (std::size_t p = 0; p < devices.size(); ++p) {
    XPUF_REQUIRE(devices[p].features() == f, "mixed stage counts in chip view");
    const double* w = devices[p].weights.data();
    double* row = weights_.row(p);
    for (std::size_t i = 0; i < f; ++i) {
      row[i] = w[i];
      weights_t_(i, p) = w[i];
    }
    noise_sigmas_.push_back(devices[p].noise_sigma);
  }
}

double ChipLinearView::noise_sigma(std::size_t puf_index) const {
  XPUF_REQUIRE(puf_index < noise_sigmas_.size(), "PUF index out of range");
  return noise_sigmas_[puf_index];
}

// Empty blocks produce an empty matrix, mirroring the tile kernels.
linalg::Matrix ChipLinearView::delay_differences(const FeatureBlock& block) const {
  if (block.empty()) return linalg::Matrix(0, puf_count());
  XPUF_REQUIRE(block.features() == features(), "feature length mismatch");
  return linalg::matmul_nt(block.phi(), weights_);
}

// Same empty-block contract.
linalg::Matrix ChipLinearView::one_probabilities(const FeatureBlock& block) const {
  linalg::Matrix delays = delay_differences(block);
  for (std::size_t r = 0; r < delays.rows(); ++r) {
    double* row = delays.row(r);
    for (std::size_t p = 0; p < noise_sigmas_.size(); ++p) row[p] /= noise_sigmas_[p];
  }
  const std::size_t n = delays.rows() * delays.cols();
  std::span<double> flat(delays.row(0), n);
  normal_cdf_batch(flat, flat);
  return delays;
}

namespace {

/// Feature-outer tile kernel for a compile-time PUF count: every output
/// element still sums its w(p, i) * phi[i] terms in ascending i — identical
/// to matmul_nt's per-element order, so the result is bit-identical — but
/// the N accumulation chains are independent, live in registers, and the
/// inner loop is contiguous over the transposed weights.
template <std::size_t N>
[[gnu::noinline]] void delay_tile_fixed(const linalg::Matrix& weights_t,
                                        const FeatureBlock& block, std::size_t begin,
                                        std::size_t end, double* out) {
  const std::size_t f = weights_t.rows();
  for (std::size_t r = begin; r < end; ++r) {
    const double* phi = block.row(r);
    double acc[N] = {};
    for (std::size_t i = 0; i < f; ++i) {
      const double phi_i = phi[i];
      const double* wt = weights_t.row(i);
      for (std::size_t p = 0; p < N; ++p) acc[p] += wt[p] * phi_i;
    }
    double* orow = out + (r - begin) * N;
    for (std::size_t p = 0; p < N; ++p) orow[p] = acc[p];
  }
}

/// Runtime-width fallback, same accumulation order. `n` is the true PUF
/// count; weights_t rows may be zero-padded beyond it.
void delay_tile_generic(const linalg::Matrix& weights_t, std::size_t n,
                        const FeatureBlock& block, std::size_t begin, std::size_t end,
                        double* out) {
  const std::size_t f = weights_t.rows();
  std::vector<double> acc(n);
  for (std::size_t r = begin; r < end; ++r) {
    const double* phi = block.row(r);
    for (std::size_t p = 0; p < n; ++p) acc[p] = 0.0;
    for (std::size_t i = 0; i < f; ++i) {
      const double phi_i = phi[i];
      const double* wt = weights_t.row(i);
      for (std::size_t p = 0; p < n; ++p) acc[p] += wt[p] * phi_i;
    }
    double* orow = out + (r - begin) * n;
    for (std::size_t p = 0; p < n; ++p) orow[p] = acc[p];
  }
}

#if defined(__AVX2__)

/// Inner body of the AVX2 tile: R challenge rows x V four-wide lanes over
/// the zero-padded PUF dimension. Each output element owns one vector lane
/// and accumulates its w(p, i) * phi[i] terms serially in ascending i — the
/// exact scalar order — and vmulpd/vaddpd are per-lane IEEE operations with
/// contraction pinned off, so the result is bit-identical to the scalar
/// dot. Unrolling rows keeps R x V independent add chains in flight, which
/// is what hides the four-cycle vaddpd latency the single-dot walk eats.
template <std::size_t V, std::size_t R>
inline void avx2_rows(const double* w0, std::size_t f, std::size_t stride,
                      const double* const* phi, const double* div, double* tmp) {
  __m256d acc[R][V];
  for (std::size_t q = 0; q < R; ++q)
    for (std::size_t v = 0; v < V; ++v) acc[q][v] = _mm256_setzero_pd();
  const double* wt = w0;
  for (std::size_t i = 0; i < f; ++i, wt += stride) {
    for (std::size_t q = 0; q < R; ++q) {
      const __m256d ph = _mm256_broadcast_sd(phi[q] + i);
      for (std::size_t v = 0; v < V; ++v)
        acc[q][v] =
            _mm256_add_pd(acc[q][v], _mm256_mul_pd(_mm256_loadu_pd(wt + 4 * v), ph));
    }
  }
  // Optionally divide each lane on the way out (the noise-sigma step of
  // one_probabilities): vdivpd is the exact same single IEEE division per
  // element the scalar path performs, four lanes at a time — never a
  // reciprocal multiply.
  for (std::size_t q = 0; q < R; ++q)
    for (std::size_t v = 0; v < V; ++v) {
      __m256d a = acc[q][v];
      if (div != nullptr) a = _mm256_div_pd(a, _mm256_loadu_pd(div + 4 * v));
      _mm256_storeu_pd(tmp + (q * V + v) * 4, a);
    }
}

/// AVX2 tile kernel for PUF counts up to 4 * V. `div`, when non-null, points
/// at `stride` per-lane divisors applied to every row before the store.
template <std::size_t V>
[[gnu::noinline]] void delay_tile_avx2(const linalg::Matrix& weights_t, std::size_t n,
                                       const FeatureBlock& block, std::size_t begin,
                                       std::size_t end, double* out, const double* div) {
  const std::size_t f = weights_t.rows();
  const std::size_t stride = weights_t.cols();
  const double* w0 = weights_t.row(0);
  // Four rows per pass; V == 3 drops to two to stay within sixteen ymm regs.
  constexpr std::size_t kRows = V >= 3 ? 2 : 4;
  double tmp[kRows * V * 4];
  const double* phi[kRows];
  std::size_t r = begin;
  for (; r + kRows <= end; r += kRows) {
    for (std::size_t q = 0; q < kRows; ++q) phi[q] = block.row(r + q);
    avx2_rows<V, kRows>(w0, f, stride, phi, div, tmp);
    double* orow = out + (r - begin) * n;
    for (std::size_t q = 0; q < kRows; ++q)
      for (std::size_t p = 0; p < n; ++p) orow[q * n + p] = tmp[q * V * 4 + p];
  }
  for (; r < end; ++r) {
    phi[0] = block.row(r);
    avx2_rows<V, 1>(w0, f, stride, phi, div, tmp);
    double* orow = out + (r - begin) * n;
    for (std::size_t p = 0; p < n; ++p) orow[p] = tmp[p];
  }
}

/// Dispatches the AVX2 tile for the supported widths; returns false for
/// widths the portable kernels must handle.
bool avx2_dispatch(const linalg::Matrix& weights_t, std::size_t n,
                   const FeatureBlock& block, std::size_t begin, std::size_t end,
                   double* out, const double* div) {
  if (n < 1 || n > 12) return false;
  switch ((n + 3) / 4) {
    case 1: delay_tile_avx2<1>(weights_t, n, block, begin, end, out, div); return true;
    case 2: delay_tile_avx2<2>(weights_t, n, block, begin, end, out, div); return true;
    default: delay_tile_avx2<3>(weights_t, n, block, begin, end, out, div); return true;
  }
}

#endif  // __AVX2__

/// The parity-word tile, portable: one row at a time, every output element
/// adding w(p, i) with the sign bit of parity bit i in ascending i, then the
/// bias weight — the FeatureBlock tile's chain with each multiply by +/-1.0
/// replaced by its exact sign flip. `div`, when non-null, holds n divisors
/// applied before the store.
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

/// Inner body of the AVX2 parity tile: avx2_rows with each broadcast phi_i
/// replaced by row q's parity bit i moved into the sign position (the
/// parity word broadcast to all lanes, shifted one bit per stage), XOR-ed
/// onto the weight vector. vxorpd flips exactly the sign bit, so each lane
/// adds the same value the multiply by +/-1.0 produces, in the same order.
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

/// AVX2 parity tile for PUF counts up to 4 * V; the row blocking of
/// delay_tile_avx2.
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

// Tile contract as in DeviceLinearView.
void ChipLinearView::delay_differences_into(const FeatureBlock& block, std::size_t begin,
                                            std::size_t end, double* out) const {
  XPUF_REQUIRE(end <= block.size() && begin <= end, "tile range out of bounds");
  XPUF_REQUIRE(begin == end || block.features() == features(), "feature length mismatch");
  // Dispatch to a register-blocked kernel for the paper's XOR widths; every
  // branch computes the exact same IEEE operation sequence per element.
  const std::size_t n = puf_count();
#if defined(__AVX2__)
  if (avx2_dispatch(weights_t_, n, block, begin, end, out, nullptr)) return;
#endif
  switch (n) {
    case 1: delay_tile_fixed<1>(weights_t_, block, begin, end, out); break;
    case 2: delay_tile_fixed<2>(weights_t_, block, begin, end, out); break;
    case 3: delay_tile_fixed<3>(weights_t_, block, begin, end, out); break;
    case 4: delay_tile_fixed<4>(weights_t_, block, begin, end, out); break;
    case 5: delay_tile_fixed<5>(weights_t_, block, begin, end, out); break;
    case 6: delay_tile_fixed<6>(weights_t_, block, begin, end, out); break;
    case 7: delay_tile_fixed<7>(weights_t_, block, begin, end, out); break;
    case 8: delay_tile_fixed<8>(weights_t_, block, begin, end, out); break;
    case 10: delay_tile_fixed<10>(weights_t_, block, begin, end, out); break;
    default: delay_tile_generic(weights_t_, n, block, begin, end, out); break;
  }
}

// Same tile contract.
void ChipLinearView::standardized_delays_into(const FeatureBlock& block, std::size_t begin,
                                              std::size_t end, double* out) const {
  XPUF_REQUIRE(end <= block.size() && begin <= end, "tile range out of bounds");
  XPUF_REQUIRE(begin == end || block.features() == features(), "feature length mismatch");
  const std::size_t n = puf_count();
#if defined(__AVX2__)
  // Fused path: the sigma division rides the tile's store (one pass over the
  // data instead of two), with padding lanes dividing by 1.0.
  if (n >= 1 && n <= 12) {
    double sig[12 + 3] = {};
    const std::size_t stride = weights_t_.cols();
    for (std::size_t i = 0; i < stride; ++i) sig[i] = i < n ? noise_sigmas_[i] : 1.0;
    if (avx2_dispatch(weights_t_, n, block, begin, end, out, sig)) return;
  }
#endif
  delay_differences_into(block, begin, end, out);
  for (std::size_t r = 0; r < end - begin; ++r)
    for (std::size_t p = 0; p < n; ++p) out[r * n + p] /= noise_sigmas_[p];
}

// Same tile contract (checked by standardized_delays_into).
// xpuf-lint: guarded-by(standardized_delays_into)
void ChipLinearView::one_probabilities_into(const FeatureBlock& block, std::size_t begin,
                                            std::size_t end, double* out) const {
  standardized_delays_into(block, begin, end, out);
  const std::size_t total = (end - begin) * puf_count();
  normal_cdf_batch({out, total}, {out, total});
}

// Parity-word tiles: the FeatureBlock tiles' contract, rows read from words.
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

LazyCdfCounter::LazyCdfCounter(std::uint64_t trials) : trials_(trials) {
  XPUF_REQUIRE(trials >= 1, "a lazy CDF counter needs at least one trial");
  // Start at the quantile of the target tail mass and step down until the
  // product binomial computes, n * normal_cdf(z), clears 2^-54; normal_cdf
  // is monotone, so every z below the cut clears it too.
  const double n = static_cast<double>(trials);
  double z = normal_quantile(0x1p-54 / n);
  while (!(n * normal_cdf(z) < 0x1p-54)) z -= 0x1p-20;
  lower_cut_ = z;
}

}  // namespace xpuf::sim
