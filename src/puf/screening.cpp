#include "puf/screening.hpp"

#include <algorithm>
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

/// Draws candidates first .. first + count - 1 of `family` into `words`
/// (n_words per row) exactly as candidate_into does. NW is n_words when
/// known at compile time (1 up to 64 stages), 0 to read it at run time: with
/// one word per row the compiler drops the generator-state updates the
/// single draw never reads.
template <std::size_t NW>
void draw_block(const StreamFamily& family, std::uint64_t first, std::size_t count,
                std::size_t n_words, std::uint64_t tail_mask, std::uint64_t* words) {
  const std::size_t nw = NW == 0 ? n_words : NW;
  for (std::size_t i = 0; i < count; ++i, words += nw) {
    Rng rng = family.stream(first + i);
    for (std::size_t w = 0; w < nw; ++w) words[w] = rng.next_u64();
    words[nw - 1] &= tail_mask;
  }
}

/// Where a fused pass left the cascade: survivors kept (exact-path rows
/// included) and exact-path rows noted.
struct PassCounts {
  std::size_t kept = 0;
  std::size_t exact = 0;
};

/// The fused pass of a tabled PUF over m survivors: table delay a, guard
/// test, verdict, XOR bit and in-place compaction. With thr0 <= 0.5 <= thr1,
/// a < lo0 is stable with bit 0, a > hi1 stable with bit 1, hi0 < a < lo1
/// unstable, and any other a is open: such a row is kept, its bit left
/// alone, and its position in the compacted list noted in `exact_at`. K is
/// the table count when known at compile time (4 at 32 stages, 8 at 64), 0
/// to read it from `n_tables`.
template <std::size_t K, class Puf>
PassCounts fused_pass(const Puf& puf, const double* tables, std::size_t n_tables,
                      const std::uint64_t* parity, std::size_t n_words, std::size_t m,
                      std::size_t* survivors, std::size_t* exact_at, std::uint8_t* bits) {
  const std::size_t tables_used = K == 0 ? n_tables : K;
  PassCounts c;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t row = survivors[k];
    const std::uint64_t* pr = parity + row * n_words;
    double a = puf.bias;
    for (std::size_t b = 0; b < tables_used; ++b)
      a += tables[b * kTableSize + ((pr[b / 8] >> (8 * (b % 8))) & 0xFFU)];
    const unsigned stable0 = a < puf.lo0;
    const unsigned stable1 = a > puf.hi1;
    const unsigned unstable =
        static_cast<unsigned>(a > puf.hi0) & static_cast<unsigned>(a < puf.lo1);
    // Branch-free throughout: whether a row stays is a coin flip.
    bits[row] ^= static_cast<std::uint8_t>(stable1);
    survivors[c.kept] = row;
    exact_at[c.exact] = c.kept;
    c.exact += (stable0 | stable1 | unstable) ^ 1U;
    c.kept += unstable ^ 1U;
  }
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
  const std::size_t m = survivors_.size();
  fallback_at_.resize(m);
  const TablePuf tp = table_pufs_[p];
  PassCounts c;
  if (tp.tabled) {
    const std::size_t n_words = sim::packed_words(view_->stages());
    const auto pass = [&]<std::size_t K>() {
      return fused_pass<K>(tp, tables, n_tables_, parity_.data(), n_words, m,
                           survivors_.data(), fallback_at_.data(), bits_.data());
    };
    c = n_tables_ == 4   ? pass.template operator()<4>()
        : n_tables_ == 8 ? pass.template operator()<8>()
                         : pass.template operator()<0>();
  } else {
    // Exact-only PUF: every survivor is settled on its dot below.
    for (std::size_t k = 0; k < m; ++k) fallback_at_[k] = k;
    c = {m, m};
  }
  survivors_.resize(c.kept);
  if (c.exact == 0) return 0;
  // The exact path: each open row's verdict and bit come from its ascending
  // dot; a row it finds unstable is dropped without disturbing the order.
  fallback_rows_.resize(c.exact);
  for (std::size_t i = 0; i < c.exact; ++i) fallback_rows_[i] = survivors_[fallback_at_[i]];
  delays_.resize(c.exact);
  sim::parity_dots(view_->weights(p), parity_, fallback_rows_, delays_);
  constexpr std::size_t kDropped = std::numeric_limits<std::size_t>::max();
  const ThresholdPair& t = thresholds_[p];
  bool dropped = false;
  for (std::size_t i = 0; i < c.exact; ++i) {
    const double x = delays_[i];
    bits_[fallback_rows_[i]] ^= static_cast<std::uint8_t>(x > 0.5);
    if (t.unstable(x)) {
      survivors_[fallback_at_[i]] = kDropped;
      dropped = true;
    }
  }
  if (dropped) std::erase(survivors_, kDropped);
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
    // checks hold for the whole block), plus their suffix-parity form, from
    // which every Phi sign is read.
    words_.resize(want * n_words);
    const std::uint64_t first = first_index + out.tried;
    if (n_words == 1)
      draw_block<1>(family, first, want, n_words, tail_mask, words_.data());
    else
      draw_block<0>(family, first, want, n_words, tail_mask, words_.data());
    parity_.resize(words_.size());
    sim::suffix_parity_words(words_, stages, parity_);
    // The cascade: PUF p is evaluated only on the rows still stable on PUFs
    // 0 .. p-1, and compaction keeps the survivors in index order. The
    // cascade reaches PUFs in order, so their tables are built in order.
    survivors_.resize(want);
    for (std::size_t i = 0; i < want; ++i) survivors_[i] = i;
    bits_.assign(want, 0);
    for (std::size_t p = 0; p < n_pufs_ && !survivors_.empty(); ++p) {
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
    for (const std::size_t row : survivors_) {
      if (out.accepted >= count) break;
      walked = row + 1;
      ++out.stable;
      if (sink({words_.data() + row * n_words, n_words}, bits_[row] != 0)) ++out.accepted;
    }
    out.tried += out.accepted >= count ? walked : want;
  }
  out.filled = out.accepted >= count;
  out.next_index = first_index + out.tried;
  fallbacks.add(out.exact_fallbacks);
  return out;
}

}  // namespace xpuf::puf
