#include "puf/screening.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace xpuf::puf {

namespace {

constexpr std::size_t kTableSize = 256;

/// Table storage, reused across screeners: each thread keeps one arena, and
/// a walk leases it for its duration, so a refill allocates no tables once
/// the thread has screened at that size. A walk started while the arena is
/// leased (a sink that screens again) gets storage of its own.
struct TableArena {
  std::vector<double> storage;
  bool leased = false;
};

class TableLease {
 public:
  explicit TableLease(std::size_t doubles) {
    thread_local TableArena arena;
    if (!arena.leased) {
      arena.leased = true;
      arena_ = &arena;
      buffer_ = &arena.storage;
    }
    if (buffer_->size() < doubles) buffer_->resize(doubles);
  }
  ~TableLease() {
    if (arena_ != nullptr) arena_->leased = false;
  }
  TableLease(const TableLease&) = delete;
  TableLease& operator=(const TableLease&) = delete;

  double* data() { return buffer_->data(); }

 private:
  TableArena* arena_ = nullptr;
  std::vector<double> own_;
  std::vector<double>* buffer_ = &own_;
};

/// The K byte tables of one weight row (see the header): T_t[0] is the
/// ascending sum of table t's eight weights, 0.0 past `stages`, and the
/// entries with highest set bit j are T_t[v] = T_t[v - 2^j] - 2 w_{8t+j},
/// each block reading only the finished block below it — so the build has
/// no store-to-load chain and vectorizes.
void build_tables(std::span<const double> w, std::size_t stages, std::size_t n_tables,
                  double* tables) {
  for (std::size_t t = 0; t < n_tables; ++t) {
    double lane[8];
    double all = 0.0;
    for (std::size_t j = 0; j < 8; ++j) {
      lane[j] = 8 * t + j < stages ? w[8 * t + j] : 0.0;
      all += lane[j];
    }
    double* table = tables + t * kTableSize;
    table[0] = all;
    for (std::size_t j = 0; j < 8; ++j) {
      const std::size_t half = std::size_t{1} << j;
      const double twice = 2.0 * lane[j];
      for (std::size_t v = 0; v < half; ++v) table[half + v] = table[v] - twice;
    }
  }
}

/// Draws candidates first .. first + count - 1 of `family` exactly as
/// candidate_into does, one-word rows (up to 64 stages) only, into `words`,
/// and starts the survivor list in the same loop: survivor i is row i with
/// XOR bit 0, carrying the row's suffix parity. With one word per row the
/// compiler drops the generator-state updates the single draw never reads.
void draw_one_word(const StreamFamily& family, std::uint64_t first, std::size_t count,
                   std::uint64_t tail_mask, std::uint64_t* words, std::uint64_t* keys,
                   std::uint64_t* tags) {
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = family.stream(first + i);
    const std::uint64_t w = rng.next_u64() & tail_mask;
    words[i] = w;
    keys[i] = sim::suffix_parity(w);
    tags[i] = std::uint64_t{i} << 1;
  }
}

/// The same draw for rows of n_words words (more than 64 stages); their
/// suffix parity comes from sim::suffix_parity_words after the loop.
void draw_words(const StreamFamily& family, std::uint64_t first, std::size_t count,
                std::size_t n_words, std::uint64_t tail_mask, std::uint64_t* words) {
  for (std::size_t i = 0; i < count; ++i, words += n_words) {
    Rng rng = family.stream(first + i);
    for (std::size_t w = 0; w < n_words; ++w) words[w] = rng.next_u64();
    words[n_words - 1] &= tail_mask;
  }
}

/// The first loop of a tabled pass: delays[k] = bias + T_0[byte 0] + ... +
/// T_{K-1}[byte K-1] of survivor k's parity row, added in that order. Bytes
/// 0 .. 7 come from the survivor's carried parity word; a row of more than
/// 64 stages reads the rest through its row index (tags[k] >> 1). K is the
/// table count when known at compile time (4 at 32 stages, 8 at 64), 0 to
/// read it from `n_tables`. Each load is a plain byte-addressed scalar load:
/// a vgatherqpd version of this loop measured slower.
template <std::size_t K>
void table_delays(double bias, const double* tables, std::size_t n_tables,
                  const std::uint64_t* keys, const std::uint64_t* tags,
                  const std::uint64_t* parity, std::size_t n_words, std::size_t m,
                  double* delays) {
  const std::size_t tables_used = K == 0 ? n_tables : K;
  for (std::size_t k = 0; k < m; ++k) {
    double a = bias;
    for (std::size_t b = 0; b < tables_used; ++b) {
      const std::uint64_t word =
          b < 8 ? keys[k] : parity[(tags[k] >> 1) * n_words + b / 8];
      a += tables[b * kTableSize + ((word >> (8 * (b % 8))) & 0xFFU)];
    }
    delays[k] = a;
  }
}

/// Where a pass left the cascade: survivors kept (exact-path rows included)
/// and exact-path rows noted.
struct PassCounts {
  std::size_t kept = 0;
  std::size_t exact = 0;
};

/// The verdict of survivor k on its table delay a, compacting it in place
/// to position c.kept <= k. With thr0 <= 0.5 <= thr1, a < lo0 is stable
/// with bit 0, a > hi1 stable with bit 1 (XORed into the tag's low bit),
/// hi0 < a < lo1 unstable, and any other a is open: such a row is kept, its
/// bit left alone, and its position noted in `exact_at`. Branch-free: whether
/// a row stays is a coin flip.
template <class Puf>
void classify_row(const Puf& puf, double a, std::size_t k, std::uint64_t* keys,
                  std::uint64_t* tags, std::size_t* exact_at, PassCounts& c) {
  const unsigned stable0 = a < puf.lo0;
  const unsigned stable1 = a > puf.hi1;
  const unsigned unstable =
      static_cast<unsigned>(a > puf.hi0) & static_cast<unsigned>(a < puf.lo1);
  tags[c.kept] = tags[k] ^ stable1;
  keys[c.kept] = keys[k];
  exact_at[c.exact] = c.kept;
  c.exact += (stable0 | stable1 | unstable) ^ 1U;
  c.kept += unstable ^ 1U;
}

#if defined(__AVX2__)

/// kLeftPack.lanes[mask] are the _mm256_permutevar8x32_epi32 indices that
/// move the 64-bit lanes set in the 4-bit `mask` to the front, in lane
/// order. The lanes past them repeat lane 0; they land past the kept count,
/// where a later store overwrites them or nothing reads them.
struct LeftPack {
  alignas(32) std::int32_t lanes[16][8];
};

constexpr LeftPack make_left_pack() {
  LeftPack t{};
  for (int mask = 0; mask < 16; ++mask) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (((mask >> lane) & 1) == 0) continue;
      t.lanes[mask][2 * out] = 2 * lane;
      t.lanes[mask][2 * out + 1] = 2 * lane + 1;
      ++out;
    }
  }
  return t;
}

constexpr LeftPack kLeftPack = make_left_pack();

#endif  // __AVX2__

/// The second loop of a tabled pass over m survivors: classify_row on every
/// row. The AVX2 build classifies four rows per compare: a group whose
/// lanes are all settled XORs its stable-1 lanes into their tags and
/// left-packs its kept lanes (tags and carried parity words) with one
/// permute each, storing all four lanes at c.kept <= k — the group was
/// loaded first, and only lanes below k + 4 are written. A group with an
/// open lane, and the last m % 4 rows, take classify_row one row at a time,
/// so the exact path sees the same rows either way.
template <class Puf>
PassCounts classify_pass(const Puf& puf, const double* delays, std::size_t m,
                         std::uint64_t* keys, std::uint64_t* tags, std::size_t* exact_at) {
  PassCounts c;
  std::size_t k = 0;
#if defined(__AVX2__)
  const __m256d lo0 = _mm256_set1_pd(puf.lo0);
  const __m256d hi0 = _mm256_set1_pd(puf.hi0);
  const __m256d lo1 = _mm256_set1_pd(puf.lo1);
  const __m256d hi1 = _mm256_set1_pd(puf.hi1);
  const __m256i one = _mm256_set1_epi64x(1);
  for (; k + 4 <= m; k += 4) {
    const __m256d a = _mm256_loadu_pd(delays + k);
    const __m256d stable1 = _mm256_cmp_pd(a, hi1, _CMP_GT_OQ);
    const __m256d unstable =
        _mm256_and_pd(_mm256_cmp_pd(a, hi0, _CMP_GT_OQ), _mm256_cmp_pd(a, lo1, _CMP_LT_OQ));
    const __m256d settled =
        _mm256_or_pd(_mm256_or_pd(_mm256_cmp_pd(a, lo0, _CMP_LT_OQ), stable1), unstable);
    if (_mm256_movemask_pd(settled) != 0xF) {
      for (std::size_t r = k; r < k + 4; ++r)
        classify_row(puf, delays[r], r, keys, tags, exact_at, c);
      continue;
    }
    const int keep = _mm256_movemask_pd(unstable) ^ 0xF;
    const __m256i pack =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kLeftPack.lanes[keep]));
    const __m256i flip = _mm256_and_si256(_mm256_castpd_si256(stable1), one);
    const __m256i t =
        _mm256_xor_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags + k)), flip);
    const __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + k));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tags + c.kept),
                        _mm256_permutevar8x32_epi32(t, pack));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + c.kept),
                        _mm256_permutevar8x32_epi32(w, pack));
    c.kept += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(keep)));
  }
#endif
  for (; k < m; ++k) classify_row(puf, delays[k], k, keys, tags, exact_at, c);
  return c;
}

}  // namespace

// Pure accounting: every (tried, accepted) pair is legal, including zeros.
// xpuf-lint: allow(require-guard)
void record_screening(std::size_t tried, std::size_t accepted) {
  auto& registry = MetricsRegistry::global();
  static Counter& tried_counter = registry.counter("selection.candidates_tried");
  static Counter& accepted_counter = registry.counter("selection.accepted");
  static Histogram& per_batch = registry.histogram(
      "selection.batch_candidates", {10.0, 100.0, 1'000.0, 10'000.0, 100'000.0, 1'000'000.0});
  tried_counter.add(tried);
  accepted_counter.add(accepted);
  per_batch.observe(static_cast<double>(tried));
}

ChallengeScreener::ChallengeScreener(const ModelView& view, std::size_t n_pufs,
                                     ScreeningOptions options)
    : view_(&view), n_pufs_(n_pufs), options_(options) {
  XPUF_REQUIRE(!view.empty(), "screener needs a non-empty model view");
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= view.puf_count(), "screener n_pufs out of range");
  XPUF_REQUIRE(options.block >= 1, "screening block must hold at least one candidate");
  const std::size_t stages = view.stages();
  n_tables_ = (stages + 7) / 8;
  // eps_p = 2 (stages + K + 45) u fl(S), floored at 2^-1000, or +inf unless
  // fl(S) < DBL_MAX / 8; the header derives the bound. A PUF is tabled when
  // eps_p is finite and thr0 <= 0.5 <= thr1 (false for a NaN threshold).
  const double coeff = 2.0 * static_cast<double>(stages + n_tables_ + 45) * 0x1p-53;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  thresholds_.reserve(n_pufs);
  table_pufs_.reserve(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    const ThresholdPair t = view.adjusted_thresholds(p);
    thresholds_.push_back(t);
    const std::span<const double> w = view.weights(p);
    double sum_abs = 0.0;
    for (const double x : w) sum_abs += std::fabs(x);
    const double eps = sum_abs < std::numeric_limits<double>::max() / 8.0
                           ? std::max(coeff * sum_abs, 0x1p-1000)
                           : kInf;
    const auto lower = [eps](double c) { return std::nextafter(c - eps, -kInf); };
    const auto upper = [eps](double c) { return std::nextafter(c + eps, kInf); };
    TablePuf tp;
    tp.bias = w[stages];
    tp.lo0 = lower(t.thr0);
    tp.hi0 = upper(t.thr0);
    tp.lo1 = lower(t.thr1);
    tp.hi1 = upper(t.thr1);
    tp.tabled = eps < kInf && t.thr0 <= 0.5 && t.thr1 >= 0.5;
    table_pufs_.push_back(tp);
  }
}

void ChallengeScreener::candidate_into(std::span<std::uint64_t> row, std::size_t stages,
                                       Rng& rng) {
  XPUF_REQUIRE(stages >= 1, "a challenge needs at least one stage");
  XPUF_REQUIRE(row.size() == sim::packed_words(stages),
               "candidate row needs packed_words(stages) words");
  for (std::uint64_t& w : row) w = rng.next_u64();
  // Canonical: the draw's bits above `stages` never reach a ledger key.
  row.back() &= ~0ULL >> (64 * row.size() - stages);
}

// Rows, tables and survivors are the screener's own storage, sized by
// screen().
std::size_t ChallengeScreener::screen_puf(std::size_t p, const double* tables) {
  XPUF_REQUIRE(p < n_pufs_, "screened PUF index out of range");
  const std::size_t m = live_;
  const std::size_t n_words = sim::packed_words(view_->stages());
  const TablePuf tp = table_pufs_[p];
  PassCounts c;
  if (tp.tabled) {
    const auto delays = [&]<std::size_t K>() {
      table_delays<K>(tp.bias, tables, n_tables_, keys_.data(), tags_.data(), parity_.data(),
                      n_words, m, delays_.data());
    };
    if (n_tables_ == 4)
      delays.template operator()<4>();
    else if (n_tables_ == 8)
      delays.template operator()<8>();
    else
      delays.template operator()<0>();
    c = classify_pass(tp, delays_.data(), m, keys_.data(), tags_.data(), fallback_at_.data());
  } else {
    // Exact-only PUF: every survivor is settled on its dot below.
    for (std::size_t k = 0; k < m; ++k) fallback_at_[k] = k;
    c = {m, m};
  }
  live_ = c.kept;
  if (c.exact == 0) return 0;
  // The exact path: each open row's verdict and bit come from its ascending
  // dot; a row it finds unstable is dropped without disturbing the order. A
  // one-word survivor's carried word is its whole parity row, so its dot is
  // read by position; wider rows are read through their row index.
  const std::span<const std::size_t> at(fallback_at_.data(), c.exact);
  const std::span<double> dots(delays_.data(), c.exact);
  if (n_words == 1) {
    sim::parity_dots(view_->weights(p), {keys_.data(), live_}, at, dots);
  } else {
    fallback_rows_.resize(c.exact);
    for (std::size_t i = 0; i < c.exact; ++i) fallback_rows_[i] = tags_[at[i]] >> 1;
    sim::parity_dots(view_->weights(p), parity_, fallback_rows_, dots);
  }
  constexpr std::uint64_t kDropped = ~std::uint64_t{0};
  const ThresholdPair& t = thresholds_[p];
  bool dropped = false;
  for (std::size_t i = 0; i < c.exact; ++i) {
    const double x = dots[i];
    tags_[at[i]] ^= static_cast<std::uint64_t>(x > 0.5);
    if (t.unstable(x)) {
      tags_[at[i]] = kDropped;
      dropped = true;
    }
  }
  if (!dropped) return c.exact;
  std::size_t kept = 0;
  for (std::size_t k = 0; k < live_; ++k) {
    if (tags_[k] == kDropped) continue;
    tags_[kept] = tags_[k];
    keys_[kept] = keys_[k];
    ++kept;
  }
  live_ = kept;
  return c.exact;
}

ChallengeScreener::Outcome ChallengeScreener::screen(const StreamFamily& family,
                                                     std::uint64_t first_index,
                                                     std::size_t count,
                                                     std::size_t max_attempts,
                                                     const Sink& sink) {
  XPUF_REQUIRE(count >= 1, "screening quota must be positive");
  XPUF_REQUIRE(sink != nullptr, "screening needs a sink");
  static Counter& fallbacks = MetricsRegistry::global().counter("selection.exact_fallbacks");
  Outcome out;
  const std::size_t stages = view_->stages();
  const std::size_t n_words = sim::packed_words(stages);
  const std::uint64_t tail_mask = ~0ULL >> (64 * n_words - stages);
  const std::size_t puf_doubles = n_tables_ * kTableSize;
  TableLease tables(n_pufs_ * puf_doubles);
  std::size_t built = 0;  // PUFs 0 .. built - 1 have their tables
  // Geometric block ramp: start near the expected candidate demand of a
  // small quota, grow toward options_.block. Purely a cost knob — candidate
  // j's bits depend only on its stream index, so the block partition is
  // invisible in the issued sequence.
  std::size_t ramp = std::min(options_.block, std::max<std::size_t>(8, 2 * count));
  while (out.accepted < count && out.tried < max_attempts) {
    const std::size_t want = std::min(ramp, max_attempts - out.tried);
    ramp = std::min(options_.block, ramp * 2);
    // Candidates stay packed: candidate_into's rows, drawn inline (its
    // checks hold for the whole block). Each starts as a survivor carrying
    // its row index, a zero XOR bit and its suffix parity, from which every
    // Phi sign is read: one-word rows take it in the draw loop, wider rows
    // carry their first parity word and keep the rest by row index.
    words_.resize(want * n_words);
    keys_.resize(want);
    tags_.resize(want);
    delays_.resize(want);
    fallback_at_.resize(want);
    const std::uint64_t first = first_index + out.tried;
    if (n_words == 1) {
      draw_one_word(family, first, want, tail_mask, words_.data(), keys_.data(), tags_.data());
    } else {
      draw_words(family, first, want, n_words, tail_mask, words_.data());
      parity_.resize(words_.size());
      sim::suffix_parity_words(words_, stages, parity_);
      for (std::size_t i = 0; i < want; ++i) {
        keys_[i] = parity_[i * n_words];
        tags_[i] = std::uint64_t{i} << 1;
      }
    }
    live_ = want;
    // The cascade: PUF p is evaluated only on the rows still stable on PUFs
    // 0 .. p-1, and compaction keeps the survivors in index order. The
    // cascade reaches PUFs in order, so their tables are built in order.
    for (std::size_t p = 0; p < n_pufs_ && live_ > 0; ++p) {
      double* puf_tables = tables.data() + p * puf_doubles;
      if (p == built) {
        if (table_pufs_[p].tabled) build_tables(view_->weights(p), stages, n_tables_, puf_tables);
        ++built;
      }
      out.exact_fallbacks += screen_puf(p, puf_tables);
    }
    // Rows the cascade dropped count as tried; the walk stops right after
    // the candidate that fills the quota, exactly where the serial walk does.
    std::size_t walked = want;
    for (std::size_t k = 0; k < live_ && out.accepted < count; ++k) {
      const std::size_t row = static_cast<std::size_t>(tags_[k] >> 1);
      walked = row + 1;
      ++out.stable;
      if (sink({words_.data() + row * n_words, n_words}, (tags_[k] & 1U) != 0)) ++out.accepted;
    }
    out.tried += out.accepted >= count ? walked : want;
  }
  out.filled = out.accepted >= count;
  out.next_index = first_index + out.tried;
  fallbacks.add(out.exact_fallbacks);
  return out;
}

}  // namespace xpuf::puf
