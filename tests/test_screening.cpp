// Tests for the authentication hot path: the batched stable-challenge
// screener's bit-exactness contract (any block size x any thread count ==
// the serial reference walk of tests/oracle/), per-device issuance pools (drain, low-water
// refill, live fallback, crash re-drain), the POOL record's crash safety at
// every truncation point, and zero-copy mapped model serving.

// GCC 12's value-range propagation mis-models std::less<vector<uint8_t>> when
// set::insert inlines memcmp in Release and reports an impossible bound
// (stringop-overread); the comparison is well-defined for any real vector.
// Before the includes because the late-IPA diagnostic anchors inside libstdc++.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "oracle/oracle.hpp"
#include "puf/database.hpp"
#include "puf/enrollment.hpp"
#include "puf/screening.hpp"
#include "puf/store/record.hpp"
#include "puf/store/store.hpp"
#include "sim/linear.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

namespace fs = std::filesystem;

std::uint64_t counter_or_zero(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// A realistically-enrolled model (3 PUFs by default): genuine
/// stable/unstable candidate mix, deterministic across calls (fresh RNGs
/// each time).
ServerModel enroll_model(std::size_t n_pufs = 3) {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = n_pufs;
  cfg.seed = 5150;
  sim::ChipPopulation pop(cfg);
  Rng rng(808);
  EnrollmentConfig ecfg;
  ecfg.training_challenges = 2'000;
  ecfg.trials = 2'000;
  ServerModel m = Enroller(ecfg).enroll(pop.chip(0), rng);
  m.set_betas(BetaFactors{0.85, 1.15});
  return m;
}

/// Deterministic hand-built model (test_store idiom) whose thresholds are
/// controllable — `unstable` makes every candidate classify kUnstable, so
/// screening can never accept.
ServerModel make_plain_model(std::uint64_t id, std::size_t stages, bool unstable = false) {
  std::vector<PufEnrollment> pufs;
  for (std::size_t p = 0; p < 3; ++p) {
    PufEnrollment e;
    linalg::Vector w(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i)
      w[i] = 0.25 * static_cast<double>(i + p + 1) + 1e-9 * static_cast<double>(id);
    e.model = ArbiterPufModel(std::move(w));
    e.thresholds.thr0 = unstable ? -1e18 : 0.4 - 0.001 * static_cast<double>(p);
    e.thresholds.thr1 = unstable ? 1e18 : 0.6 + 0.001 * static_cast<double>(p);
    e.train_r_squared = 0.99;
    e.fit_time_ms = 1.0;
    pufs.push_back(std::move(e));
  }
  ServerModel m(static_cast<std::size_t>(id), std::move(pufs));
  m.set_betas(BetaFactors{0.85, 1.15});
  return m;
}

std::string unique_dir(const std::string& tag) {
  return (fs::temp_directory_path() / ("xpuf_screening_" + tag + "_" +
                                       std::to_string(::getpid())))
      .string();
}

Challenge unpacked(std::span<const std::uint64_t> row, std::size_t stages) {
  Challenge c;
  sim::unpack_challenge_into(row, stages, c);
  return c;
}

std::vector<Challenge> challenges_of(const ChallengeBatch& batch) {
  std::vector<Challenge> out;
  for (std::size_t i = 0; i < batch.size(); ++i) out.push_back(batch.challenge(i));
  return out;
}

/// The device's pool as the store holds it: the slot's fixed fields plus
/// every entry. False when the device has no pool.
bool read_pool(const store::EnrollmentStore& s, std::uint64_t id, store::PoolPayload& out) {
  store::PoolSlot slot;
  if (!s.pool_slot(id, slot)) return false;
  out = store::PoolPayload{};
  out.stages = s.device_record(id).stages;
  out.epoch = slot.epoch;
  out.cursor = slot.cursor;
  s.read_pool_slice(id, 0, slot.count, out.words, out.expected);
  return true;
}

struct Walk {
  std::vector<std::uint64_t> words;  ///< the sink's rows, back to back
  std::vector<Challenge> challenges;
  std::vector<bool> bits;
  ChallengeScreener::Outcome out;
};

/// run_walk's block size that selects the serial oracle walk instead of the
/// screener.
constexpr std::size_t kSerial = 0;

/// One accept-all walk: the screener's at block size `block`, or the serial
/// oracle's (oracle::serial_screen) when block == kSerial.
Walk run_walk(const ModelView& view, std::size_t block, std::uint64_t family_base,
              std::uint64_t first, std::size_t count, std::size_t max_attempts,
              std::size_t n_pufs = 3) {
  Walk w;
  const auto sink = [&](std::span<const std::uint64_t> row, bool bit) {
    w.words.insert(w.words.end(), row.begin(), row.end());
    w.challenges.push_back(unpacked(row, view.stages()));
    w.bits.push_back(bit);
    return true;
  };
  const StreamFamily family(family_base);
  if (block == kSerial) {
    w.out = oracle::serial_screen(view, n_pufs, family, first, count, max_attempts, sink);
  } else {
    ChallengeScreener screener(view, n_pufs, {.block = block});
    w.out = screener.screen(family, first, count, max_attempts, sink);
  }
  return w;
}

void expect_walks_identical(const Walk& a, const Walk& b) {
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.challenges, b.challenges);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.out.tried, b.out.tried);
  EXPECT_EQ(a.out.stable, b.out.stable);
  EXPECT_EQ(a.out.accepted, b.out.accepted);
  EXPECT_EQ(a.out.filled, b.out.filled);
  EXPECT_EQ(a.out.next_index, b.out.next_index);
}

void expect_batches_identical(const ChallengeBatch& a, const ChallengeBatch& b) {
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.expected, b.expected);
}

// --- batched screening bit-exactness ----------------------------------------

TEST(ScreeningEquivalence, BatchedMatchesSerialAtEveryBlockSizeAndThreadCount) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  const std::uint64_t base = 0xdecafbadULL;
  const Walk ref =
      run_walk(view, kSerial, base, 0, 24, 1'000'000);
  ASSERT_TRUE(ref.out.filled);
  ASSERT_EQ(ref.out.accepted, 24u);
  // Rejection sampling really rejected something, or the model is degenerate
  // and the equivalence below is vacuous.
  ASSERT_GT(ref.out.tried, ref.out.accepted);

  const std::size_t kBlocks[] = {1, 64, 1024};
  const std::size_t kThreads[] = {1, 2, 8};
  for (const std::size_t block : kBlocks) {
    for (const std::size_t threads : kThreads) {
      ThreadPool::set_global_threads(threads);
      const Walk got =
          run_walk(view, block, base, 0, 24, 1'000'000);
      SCOPED_TRACE("block=" + std::to_string(block) +
                   " threads=" + std::to_string(threads));
      expect_walks_identical(ref, got);
    }
  }
  ThreadPool::set_global_threads(0);
}

/// A 3-PUF model with Gaussian weights and an unstable band around the
/// 0.5 centre about 2 * band weight-sigmas wide per PUF — by default 0.8,
/// so roughly a third of candidates pass all three — at any stage count.
ServerModel make_random_model(std::size_t stages, std::uint64_t seed, double band = 0.4) {
  Rng rng(seed);
  const double sd = std::sqrt(static_cast<double>(stages + 1));
  std::vector<PufEnrollment> pufs;
  for (std::size_t p = 0; p < 3; ++p) {
    PufEnrollment e;
    linalg::Vector w(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i) w[i] = rng.normal(0.0, 1.0);
    e.model = ArbiterPufModel(std::move(w));
    e.thresholds.thr0 = 0.5 - band * sd;
    e.thresholds.thr1 = 0.5 + band * sd;
    e.train_r_squared = 0.99;
    e.fit_time_ms = 1.0;
    pufs.push_back(std::move(e));
  }
  return ServerModel(0, std::move(pufs));
}

TEST(ScreeningEquivalence, PackedWalkMatchesSerialAcrossWordBoundaries) {
  // 32 stages is the paper's width (one word, upper half ignored); 64 fills
  // a word exactly; 65 spills one stage into a second word.
  for (const std::size_t stages : {32u, 64u, 65u}) {
    const ServerModel model = make_random_model(stages, 600 + stages);
    const ModelView view = ModelView::of(model);
    const std::uint64_t base = 0x5eed0000ULL + stages;
    const Walk ref =
        run_walk(view, kSerial, base, 3, 40, 1'000'000);
    ASSERT_TRUE(ref.out.filled);
    ASSERT_GT(ref.out.tried, 2 * ref.out.accepted) << "stages " << stages;
    ASSERT_EQ(ref.challenges.front().size(), stages);
    for (const std::size_t block : {1u, 7u, 256u}) {
      for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::set_global_threads(threads);
        const Walk got =
            run_walk(view, block, base, 3, 40, 1'000'000);
        SCOPED_TRACE("stages=" + std::to_string(stages) + " block=" +
                     std::to_string(block) + " threads=" + std::to_string(threads));
        expect_walks_identical(ref, got);
      }
    }
  }
  ThreadPool::set_global_threads(0);
}

TEST(ScreeningEquivalence, SinkRowsAreCanonicalAtEveryWidth) {
  // Each candidate is drawn a whole word at a time; the bits past `stages`
  // must be cleared before the row reaches the sink, or they would become
  // part of a ledger key (two keys for one challenge).
  for (const std::size_t stages : {1u, 31u, 32u, 33u, 64u, 65u, 100u}) {
    // A zero-width band: every candidate is stable, so each walk fills.
    const ServerModel model = make_random_model(stages, 900 + stages, 0.0);
    const ModelView view = ModelView::of(model);
    const std::size_t stride = sim::packed_words(stages);
    const std::uint64_t spare = stages % 64 == 0 ? 0 : ~0ULL << (stages % 64);
    for (const bool batched : {false, true}) {
      const Walk w = run_walk(view, batched ? 64 : kSerial, 0xca40ULL + stages, 0, 20,
                              100'000);
      ASSERT_TRUE(w.out.filled) << "stages " << stages;
      ASSERT_EQ(w.words.size(), w.out.accepted * stride);
      for (std::size_t at = 0; at < w.words.size(); at += stride)
        EXPECT_EQ(w.words[at + stride - 1] & spare, 0u)
            << "stages " << stages << (batched ? " batched" : " serial");
    }
  }
}

/// What the first PUF's thresholds do to every candidate of a cascade.
enum class FirstPuf { kRejectAll, kAcceptAll, kPassMost };

/// An n-PUF model with Gaussian weights. PUFs 1..n-1 pass about 63 % of
/// candidates each (the per-PUF pass rate of the paper's n = 10 lot); PUF 0
/// rejects every candidate, accepts every candidate, or passes ~63 % too.
ServerModel make_cascade_model(std::size_t stages, std::size_t n, FirstPuf first,
                               std::uint64_t seed) {
  Rng rng(seed);
  const double sd = std::sqrt(static_cast<double>(stages + 1));
  std::vector<PufEnrollment> pufs;
  for (std::size_t p = 0; p < n; ++p) {
    PufEnrollment e;
    linalg::Vector w(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i) w[i] = rng.normal(0.0, 1.0);
    e.model = ArbiterPufModel(std::move(w));
    // |z| > 0.48 holds for ~63 % of a standard normal.
    e.thresholds.thr0 = 0.5 - 0.48 * sd;
    e.thresholds.thr1 = 0.5 + 0.48 * sd;
    if (p == 0 && first == FirstPuf::kRejectAll) {
      e.thresholds.thr0 = -1e18;  // nothing below, nothing above: all unstable
      e.thresholds.thr1 = 1e18;
    } else if (p == 0 && first == FirstPuf::kAcceptAll) {
      e.thresholds.thr0 = 1e18;  // every finite delay is a stable '0' call
      e.thresholds.thr1 = 1e18;
    }
    e.train_r_squared = 0.99;
    e.fit_time_ms = 1.0;
    pufs.push_back(std::move(e));
  }
  return ServerModel(0, std::move(pufs));
}

TEST(ScreeningEquivalence, CascadeMatchesSerialWhateverTheFirstPufDecides) {
  const std::size_t stages = 32;
  for (const std::size_t n : {1u, 2u, 3u, 10u}) {
    for (const FirstPuf first :
         {FirstPuf::kRejectAll, FirstPuf::kAcceptAll, FirstPuf::kPassMost}) {
      const ServerModel model = make_cascade_model(stages, n, first, 900 + n);
      const ModelView view = ModelView::of(model);
      const std::uint64_t base = 0xca5cade0ULL + n;
      // A rejecting first PUF can never fill the quota: the walk must
      // exhaust max_attempts, not loop.
      const std::size_t max_attempts = first == FirstPuf::kRejectAll ? 3'000 : 1'000'000;
      const Walk ref = run_walk(view, kSerial, base, 5, 12,
                                max_attempts, n);
      if (first == FirstPuf::kRejectAll) {
        ASSERT_FALSE(ref.out.filled);
        ASSERT_EQ(ref.out.tried, max_attempts);
        ASSERT_EQ(ref.out.stable, 0u);
      } else {
        ASSERT_TRUE(ref.out.filled);
      }
      // With PUF 0 accepting everything, a single-PUF walk accepts every
      // candidate; otherwise something must have been rejected.
      if (first == FirstPuf::kAcceptAll && n == 1) {
        ASSERT_EQ(ref.out.tried, 12u);
      } else {
        ASSERT_GT(ref.out.tried, ref.out.accepted);
      }
      for (const std::size_t block : {1u, 7u, 256u}) {
        const Walk got = run_walk(view, block, base, 5, 12,
                                  max_attempts, n);
        SCOPED_TRACE("n=" + std::to_string(n) + " first=" +
                     std::to_string(static_cast<int>(first)) +
                     " block=" + std::to_string(block));
        expect_walks_identical(ref, got);
      }
    }
  }
}

TEST(ScreeningMask, BranchFreeMaskEqualsClassifyOnEdgeValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const ThresholdPair pairs[] = {{0.25, 0.75}, {0.0, 0.0},  {-0.0, 0.0}, {0.0, -0.0},
                                 {-inf, inf},  {inf, -inf}, {0.6, 0.4},  {nan, 0.5}};
  for (const ThresholdPair& t : pairs) {
    const double values[] = {0.0,    -0.0,   inf,    -inf, nan, -nan, 0.25,
                             0.75,   0.5,    1e-300, -1e-300, t.thr0, t.thr1};
    for (const double x : values)
      EXPECT_EQ(t.unstable(x), t.classify(x) == StableClass::kUnstable)
          << "x=" << x << " thr0=" << t.thr0 << " thr1=" << t.thr1;
  }
  // Values on a threshold are unstable; NaN is never stable.
  const ThresholdPair t{0.25, 0.75};
  EXPECT_TRUE(t.unstable(0.25));
  EXPECT_TRUE(t.unstable(0.75));
  EXPECT_TRUE(t.unstable(nan));
  EXPECT_FALSE(t.unstable(-inf));
  EXPECT_FALSE(t.unstable(inf));
}

TEST(ScreeningEquivalence, WalkResumesFromNextIndexWithoutSeams) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  const std::uint64_t base = 77;
  const Walk whole = run_walk(view, 256, base, 0, 24, 1'000'000);
  Walk head = run_walk(view, 256, base, 0, 10, 1'000'000);
  const Walk tail = run_walk(view, 256, base, head.out.next_index, 14, 1'000'000);
  head.words.insert(head.words.end(), tail.words.begin(), tail.words.end());
  head.challenges.insert(head.challenges.end(), tail.challenges.begin(),
                         tail.challenges.end());
  head.bits.insert(head.bits.end(), tail.bits.begin(), tail.bits.end());
  EXPECT_EQ(head.words, whole.words);
  EXPECT_EQ(head.challenges, whole.challenges);
  EXPECT_EQ(head.bits, whole.bits);
  EXPECT_EQ(tail.out.next_index, whole.out.next_index);
  EXPECT_EQ(head.out.tried + tail.out.tried, whole.out.tried);
}

TEST(ScreeningEquivalence, SinkRejectionKeepsModesAligned) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  // A sink that rejects every other stable candidate (the replay-ledger
  // shape) must leave both modes walking the identical candidate sequence.
  const auto run = [&](bool batched) {
    Walk w;
    bool toggle = false;
    const auto sink = [&](std::span<const std::uint64_t> row, bool bit) {
      toggle = !toggle;
      if (!toggle) return false;
      w.words.insert(w.words.end(), row.begin(), row.end());
      w.challenges.push_back(unpacked(row, view.stages()));
      w.bits.push_back(bit);
      return true;
    };
    const StreamFamily family(31337);
    if (batched) {
      ChallengeScreener s(view, 3, {.block = 64});
      w.out = s.screen(family, 0, 12, 1'000'000, sink);
    } else {
      w.out = oracle::serial_screen(view, 3, family, 0, 12, 1'000'000, sink);
    }
    return w;
  };
  const Walk serial = run(false);
  const Walk batched = run(true);
  expect_walks_identical(serial, batched);
  EXPECT_EQ(serial.out.accepted, 12u);
  // accept/reject alternation ending on the 12th accept: 23 stable in total.
  EXPECT_EQ(serial.out.stable, 23u);
}

TEST(ScreeningEquivalence, ScreeningConsumesNothingFromTheCallerRng) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  Rng used(42);
  Rng mirror(42);
  const StreamFamily family(used.fork_base());
  (void)mirror.fork_base();
  (void)run_walk(view, 256, family.base(), 0, 24, 1'000'000);
  // The walk seeded per-candidate streams from the family alone; the caller
  // RNG advanced exactly one fork_base() draw.
  EXPECT_EQ(used.next_u64(), mirror.next_u64());
}

TEST(ScreeningEquivalence, IssueLiveIsBitIdenticalAcrossScreeningModes) {
  ServerDatabase db(DatabaseConfig{
      .n_pufs = 3, .policy = {.challenge_count = 16}, .pool = {}});
  const ServerModel model = enroll_model();
  db.register_device(model);
  const ModelView view = ModelView::of(model);
  // The serial oracle walk with the database's replay ledger: a row issued
  // before is rejected and the walk goes on.
  std::set<std::vector<std::uint64_t>> ledger;
  for (int round = 0; round < 4; ++round) {
    Rng rng(900 + round);
    const ChallengeBatch got = db.issue_live(0, rng);
    Rng mirror(900 + round);
    ChallengeBatch want;
    want.stages = view.stages();
    const ChallengeScreener::Outcome out = oracle::serial_screen(
        view, 3, StreamFamily(mirror.fork_base()), 0, 16,
        AuthenticationPolicy{}.max_selection_attempts,
        [&](std::span<const std::uint64_t> row, bool bit) {
          if (!ledger.emplace(row.begin(), row.end()).second) return false;
          want.push_back(row, bit);
          return true;
        });
    SCOPED_TRACE("round " + std::to_string(round));
    expect_batches_identical(got, want);
    EXPECT_EQ(got.candidates_tried, out.tried);
  }
}

// --- certified byte-table margin -------------------------------------------

std::uint64_t exact_fallbacks_total() {
  return counter_or_zero(MetricsRegistry::global().snapshot(), "selection.exact_fallbacks");
}

/// The exact delays — sim::parity_dots, the serial walk's ascending dot — of
/// candidates 0 .. count - 1 of `family` under weight row `w`.
std::vector<double> exact_delays(std::span<const double> w, std::size_t stages,
                                 const StreamFamily& family, std::size_t count) {
  const std::size_t stride = sim::packed_words(stages);
  std::vector<std::uint64_t> words(count * stride);
  std::vector<std::uint64_t> parity(count * stride);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = family.stream(i);
    ChallengeScreener::candidate_into({words.data() + i * stride, stride}, stages, rng);
  }
  sim::suffix_parity_words(words, stages, parity);
  std::vector<std::size_t> rows(count);
  for (std::size_t i = 0; i < count; ++i) rows[i] = i;
  std::vector<double> out(count);
  sim::parity_dots(w, parity, rows, out);
  return out;
}

/// How an adversarial model puts candidate delays on a decision boundary.
/// Each one does so on PUF 0, which every candidate reaches.
enum class Boundary {
  kThresholdOnDelay,  ///< thr0 / thr1 are exact delays of drawn candidates
  kGridOnDelay,       ///< the same on quarter-grid weights, where delays tie
  kGridOnHalf,        ///< quarter-grid weights, thresholds and a delay on 0.5
  kNanWeight,         ///< a NaN weight
  kInfiniteWeight,    ///< an infinite weight
};

ServerModel make_boundary_model(std::size_t stages, std::size_t n, Boundary kind,
                                const StreamFamily& family, std::uint64_t seed) {
  Rng rng(seed);
  const double sd = std::sqrt(static_cast<double>(stages + 1));
  const bool grid = kind == Boundary::kGridOnDelay || kind == Boundary::kGridOnHalf;
  std::vector<PufEnrollment> pufs;
  for (std::size_t p = 0; p < n; ++p) {
    PufEnrollment e;
    linalg::Vector w(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i)
      w[i] = grid ? 0.25 * static_cast<double>(1 + rng.uniform_below(2))
                  : rng.normal(0.0, 1.0);
    if (grid) w[stages] = 0.5;
    e.thresholds.thr0 = 0.5 - 0.48 * sd;
    e.thresholds.thr1 = 0.5 + 0.48 * sd;
    if (kind == Boundary::kThresholdOnDelay || kind == Boundary::kGridOnDelay) {
      // The quartile delays of the first 64 candidates, exactly: those
      // candidates sit on a threshold wherever the cascade reaches them.
      std::vector<double> d = exact_delays(w.span(), stages, family, 64);
      std::sort(d.begin(), d.end());
      e.thresholds.thr0 = d[16];
      e.thresholds.thr1 = d[48];
    } else if (kind == Boundary::kGridOnHalf) {
      // Thresholds collapsed onto 0.5 (the no-unstable-CRP limit), and the
      // bias moved so candidate 16 lands on it: grid sums are exact.
      w[stages] = 1.0 - exact_delays(w.span(), stages, family, 64)[16];
      e.thresholds.thr0 = 0.5;
      e.thresholds.thr1 = 0.5;
    } else if (p == 0) {
      w[stages / 2] = kind == Boundary::kNanWeight ? std::numeric_limits<double>::quiet_NaN()
                                                   : std::numeric_limits<double>::infinity();
    }
    e.model = ArbiterPufModel(std::move(w));
    e.train_r_squared = 0.99;
    e.fit_time_ms = 1.0;
    pufs.push_back(std::move(e));
  }
  return ServerModel(0, std::move(pufs));
}

TEST(ScreeningMargin, BoundaryDelaysTakeTheExactPathAndMatchTheSerialWalk) {
  const Boundary kinds[] = {Boundary::kThresholdOnDelay, Boundary::kGridOnDelay,
                            Boundary::kGridOnHalf, Boundary::kNanWeight,
                            Boundary::kInfiniteWeight};
  for (const std::size_t stages : {1u, 7u, 8u, 31u, 32u, 33u, 63u, 64u, 65u, 100u, 128u}) {
    for (const std::size_t n : {1u, 2u, 10u}) {
      for (const Boundary kind : kinds) {
        const std::uint64_t base = 0xb0da0000ULL + 131 * stages + n;
        const StreamFamily family(base);
        const ServerModel model =
            make_boundary_model(stages, n, kind, family, 17 * stages + n);
        const ModelView view = ModelView::of(model);
        SCOPED_TRACE("stages=" + std::to_string(stages) + " n=" + std::to_string(n) +
                     " kind=" + std::to_string(static_cast<int>(kind)));
        // Boundary models may never fill; the walks must still agree on
        // every count up to max_attempts. The quota outlasts candidate 63.
        const Walk ref = run_walk(view, kSerial, base, 0, 200, 600, n);
        EXPECT_EQ(ref.out.exact_fallbacks, 0u);
        for (const std::size_t block : {7u, 256u}) {
          const std::uint64_t before = exact_fallbacks_total();
          const Walk got =
              run_walk(view, block, base, 0, 200, 600, n);
          SCOPED_TRACE("block=" + std::to_string(block));
          expect_walks_identical(ref, got);
          EXPECT_GT(got.out.exact_fallbacks, 0u);
          EXPECT_EQ(exact_fallbacks_total() - before, got.out.exact_fallbacks);
        }
      }
    }
  }
}

TEST(ScreeningMargin, PaperCalibratedFleetNeverTakesTheExactPath) {
  for (const std::size_t n : {3u, 10u}) {
    const ServerModel model = enroll_model(n);
    const ModelView view = ModelView::of(model);
    const std::uint64_t before = exact_fallbacks_total();
    const Walk ref = run_walk(view, kSerial, 0xca11b, 0, 64,
                              10'000'000, n);
    const Walk got = run_walk(view, 256, 0xca11b, 0, 64, 10'000'000, n);
    SCOPED_TRACE("n=" + std::to_string(n));
    ASSERT_TRUE(got.out.filled);
    ASSERT_GT(got.out.tried, 10 * got.out.accepted / n);
    expect_walks_identical(ref, got);
    EXPECT_EQ(got.out.exact_fallbacks, 0u);
    EXPECT_EQ(exact_fallbacks_total(), before);
  }
}

// --- the table pass, group by group -----------------------------------------

/// What PUF 0 of a kernel model does to the rows of each group of four.
enum class FirstPass {
  kKeepAll,  ///< thr0 = thr1 = 0.5, tabled: every group keeps all four rows
  kDropAll,  ///< thresholds at -/+1e18, tabled: no group keeps a row
  kOpenLane0,  ///< two rows in lane 0 of their group sit on a threshold
  kOpenLane1,
  kOpenLane2,
  kOpenLane3,
};

/// An n-PUF model with Gaussian weights; PUFs 1..n-1 pass ~63 % each, as in
/// make_cascade_model. For kOpenLane<L>, PUF 0's thresholds are the exact
/// delays of two of candidates 0 .. 63 with index = L (mod 4): the medians
/// of those 16 below 0.5 and of those above it. Every block of 64 or more rows holds
/// them in lane L of their group in PUF 0's pass, the only pass that sees
/// every row; no other row comes within the margin of a threshold.
ServerModel make_kernel_model(std::size_t stages, std::size_t n, FirstPass first,
                              const StreamFamily& family, std::uint64_t seed) {
  Rng rng(seed);
  const double sd = std::sqrt(static_cast<double>(stages + 1));
  std::vector<PufEnrollment> pufs;
  for (std::size_t p = 0; p < n; ++p) {
    PufEnrollment e;
    linalg::Vector w(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i) w[i] = rng.normal(0.0, 1.0);
    e.thresholds.thr0 = 0.5 - 0.48 * sd;
    e.thresholds.thr1 = 0.5 + 0.48 * sd;
    if (p == 0 && first == FirstPass::kKeepAll) {
      e.thresholds.thr0 = 0.5;
      e.thresholds.thr1 = 0.5;
    } else if (p == 0 && first == FirstPass::kDropAll) {
      e.thresholds.thr0 = -1e18;
      e.thresholds.thr1 = 1e18;
    } else if (p == 0) {
      const std::size_t lane = static_cast<std::size_t>(first) -
                               static_cast<std::size_t>(FirstPass::kOpenLane0);
      const std::vector<double> all = exact_delays(w.span(), stages, family, 64);
      std::vector<double> below;
      std::vector<double> above;
      for (std::size_t j = lane; j < all.size(); j += 4)
        (all[j] < 0.5 ? below : above).push_back(all[j]);
      std::sort(below.begin(), below.end());
      std::sort(above.begin(), above.end());
      e.thresholds.thr0 = below.empty() ? 0.5 : below[below.size() / 2];
      e.thresholds.thr1 = above.empty() ? 0.5 : above[above.size() / 2];
    }
    e.model = ArbiterPufModel(std::move(w));
    e.train_r_squared = 0.99;
    e.fit_time_ms = 1.0;
    pufs.push_back(std::move(e));
  }
  return ServerModel(0, std::move(pufs));
}

TEST(ScreeningKernel, EveryGroupShapeMatchesTheSerialWalk) {
  const FirstPass kinds[] = {FirstPass::kKeepAll,   FirstPass::kDropAll,
                             FirstPass::kOpenLane0, FirstPass::kOpenLane1,
                             FirstPass::kOpenLane2, FirstPass::kOpenLane3};
  // K = 1, 4, 5, 8, 9, 13 byte tables: one-word rows with and without a
  // compile-time table count, and rows of two words.
  for (const std::size_t stages : {8u, 32u, 33u, 64u, 65u, 100u}) {
    for (const std::size_t n : {1u, 2u, 10u}) {
      for (const FirstPass kind : kinds) {
        const std::uint64_t base = 0x6a0b0000ULL + 131 * stages + n;
        const StreamFamily family(base);
        const ServerModel model = make_kernel_model(stages, n, kind, family, 23 * stages + n);
        const ModelView view = ModelView::of(model);
        const ThresholdPair t0 = view.adjusted_thresholds(0);
        ASSERT_LE(t0.thr0, 0.5);  // PUF 0 is tabled
        ASSERT_GE(t0.thr1, 0.5);
        SCOPED_TRACE("stages=" + std::to_string(stages) + " n=" + std::to_string(n) +
                     " kind=" + std::to_string(static_cast<int>(kind)));
        // The quota outlasts max_attempts, so every block is screened whole
        // and the exact-path count is a property of the rows alone.
        const std::size_t max_attempts = 2'000;
        const Walk ref = run_walk(view, kSerial, base, 0, 1'000'000, max_attempts, n);
        ASSERT_EQ(ref.out.tried, max_attempts);
        if (kind == FirstPass::kDropAll) {
          ASSERT_EQ(ref.out.stable, 0u);
        } else if (kind == FirstPass::kKeepAll && n == 1) {
          ASSERT_EQ(ref.out.stable, max_attempts);
        } else {
          ASSERT_GT(ref.out.stable, 0u);
          ASSERT_LT(ref.out.stable, max_attempts);
        }
        // The rows whose PUF 0 delay is exactly on a threshold: all of them
        // take the exact path on PUF 0, which drops them (a delay on a
        // threshold is unstable), and no other row does. At 8 stages a
        // challenge recurs within 2,000 draws, so there are more than two.
        std::size_t on_threshold = 0;
        for (const double d : exact_delays(view.weights(0), stages, family, max_attempts))
          on_threshold += d == t0.thr0 || d == t0.thr1;
        if (kind != FirstPass::kKeepAll && kind != FirstPass::kDropAll) {
          ASSERT_GE(on_threshold, 2u);
        }
        // PUF 0's pass sees m = block rows: m = 1 and m = 0, 1, 2, 3 (mod 4).
        for (const std::size_t block : {1u, 64u, 65u, 66u, 67u}) {
          const Walk got = run_walk(view, block, base, 0, 1'000'000, max_attempts, n);
          SCOPED_TRACE("block=" + std::to_string(block));
          expect_walks_identical(ref, got);
          EXPECT_EQ(got.out.exact_fallbacks, on_threshold);
        }
      }
    }
  }
}

// --- issuance pools ---------------------------------------------------------

DatabaseConfig pooled_config(std::size_t target) {
  return DatabaseConfig{.n_pufs = 3,
                        .policy = {.challenge_count = 16},
                        .pool = {.target = target, .low_water = 8,
                                 .seed = 0x706f6f6c73656564ull}};
}

TEST(IssuancePool, PooledSequenceIsAPureFunctionOfThePoolSeed) {
  ServerDatabase a(pooled_config(64));
  ServerDatabase b(pooled_config(64));
  a.register_device(enroll_model());
  b.register_device(enroll_model());
  Rng ra(1);
  Rng rb(0xfeed);
  for (int round = 0; round < 4; ++round) {
    const ChallengeBatch batch_a = a.issue(0, ra);
    const ChallengeBatch batch_b = b.issue(0, rb);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_batches_identical(batch_a, batch_b);
  }
  // Neither caller RNG was touched: the pooled path never falls back.
  EXPECT_EQ(ra.next_u64(), Rng(1).next_u64());
}

TEST(IssuancePool, DrainRefillAccountingAndReplayFreedom) {
  ServerDatabase db(pooled_config(64));
  db.register_device(enroll_model());
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  std::set<Challenge> seen;
  for (int round = 1; round <= 12; ++round) {
    Rng rng(static_cast<std::uint64_t>(round));
    const ChallengeBatch batch = db.issue(0, rng);
    ASSERT_EQ(batch.size(), 16u);
    for (const Challenge& c : challenges_of(batch))
      EXPECT_TRUE(seen.insert(c).second) << "challenge reused in round " << round;
    if (round % 4 != 0) {
      // Pure drain: no screening ran at all.
      EXPECT_EQ(batch.candidates_tried, 0u) << "round " << round;
    } else {
      // target 64 / 16 per batch: every 4th round empties the pool below
      // low_water and pays one refill screen.
      EXPECT_GT(batch.candidates_tried, 0u) << "round " << round;
    }
  }
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  EXPECT_EQ(counter_or_zero(after, "auth.pool_hits") -
                counter_or_zero(before, "auth.pool_hits"),
            12u);
  EXPECT_EQ(counter_or_zero(after, "auth.pool_misses"),
            counter_or_zero(before, "auth.pool_misses"));
  EXPECT_EQ(counter_or_zero(after, "auth.pool_refills") -
                counter_or_zero(before, "auth.pool_refills"),
            3u);
  EXPECT_EQ(counter_or_zero(after, "db.issue_requests") -
                counter_or_zero(before, "db.issue_requests"),
            12u);
  EXPECT_EQ(db.issued_count(0), 192u);
  // The fleet gauge tracks this device's undrained entries exactly.
  EXPECT_EQ(after.gauges.at("auth.pool_size"),
            static_cast<double>(db.pool_remaining(0)));
  EXPECT_GE(db.pool_remaining(0), 8u);
}

TEST(IssuancePool, RefillNeverPoolsAKeyThatIsAlreadyPooled) {
  // 8-stage challenges leave 256 keys, so a 52-entry pool and every refill
  // are sure to screen keys already pooled — earlier in the same walk or
  // carried over undrained. None may enter the pool twice. Sizing: 16 per
  // batch leaves 4 < low_water 8 undrained after every third batch, so each
  // refill carries 4 keys over.
  const std::string dir = unique_dir("short_keys");
  fs::remove_all(dir);
  {
    ServerDatabase db = ServerDatabase::open(dir, pooled_config(52));
    db.register_device(make_plain_model(0, 8));
    const auto expect_distinct_pool = [&](const std::string& when) {
      store::PoolPayload pool;
      ASSERT_TRUE(read_pool(db.store(), 0, pool)) << when;
      ASSERT_EQ(pool.size(), 52u) << when;
      std::set<std::uint64_t> unique;  // 8 stages: one word per row
      for (const std::uint64_t row : pool.words) unique.insert(row);
      EXPECT_EQ(unique.size(), pool.size()) << when;
    };
    expect_distinct_pool("after registration");
    const MetricsSnapshot before = MetricsRegistry::global().snapshot();
    std::set<Challenge> seen;
    for (int round = 1; round <= 6; ++round) {
      Rng rng(static_cast<std::uint64_t>(round));
      const ChallengeBatch batch = db.issue(0, rng);
      ASSERT_EQ(batch.size(), 16u);
      EXPECT_EQ(batch.replay_rejected, 0u) << "round " << round;
      for (const Challenge& c : challenges_of(batch))
        EXPECT_TRUE(seen.insert(c).second) << "challenge reused in round " << round;
      expect_distinct_pool("after round " + std::to_string(round));
    }
    const MetricsSnapshot after = MetricsRegistry::global().snapshot();
    EXPECT_EQ(counter_or_zero(after, "auth.replay_rejected"),
              counter_or_zero(before, "auth.replay_rejected"));
    // Rounds 3 and 6 each ended with a carry-over refill.
    EXPECT_EQ(counter_or_zero(after, "auth.pool_refills") -
                  counter_or_zero(before, "auth.pool_refills"),
              2u);
  }
  fs::remove_all(dir);
}

TEST(IssuancePool, DisabledPoolingIsBitIdenticalToLiveScreening) {
  ServerDatabase pooled_off(pooled_config(0));
  ServerDatabase reference(pooled_config(0));
  pooled_off.register_device(enroll_model());
  reference.register_device(enroll_model());
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  Rng ra(4242);
  Rng rb(4242);
  const ChallengeBatch via_issue = pooled_off.issue(0, ra);
  const ChallengeBatch via_live = reference.issue_live(0, rb);
  expect_batches_identical(via_issue, via_live);
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  // issue() ledger: one request, resolved as a pool miss; the direct
  // issue_live() call (the bench's reference side) counts in neither.
  EXPECT_EQ(counter_or_zero(after, "db.issue_requests") -
                counter_or_zero(before, "db.issue_requests"),
            1u);
  EXPECT_EQ(counter_or_zero(after, "auth.pool_misses") -
                counter_or_zero(before, "auth.pool_misses"),
            1u);
  EXPECT_EQ(counter_or_zero(after, "auth.pool_hits"),
            counter_or_zero(before, "auth.pool_hits"));
}

TEST(IssuancePool, DryScreeningBypassesThePoolThenSurfacesExhaustion) {
  DatabaseConfig cfg = pooled_config(8);
  cfg.policy.max_selection_attempts = 200;
  ServerDatabase db(cfg);
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  // Thresholds classify every candidate unstable: registration's pre-screen
  // and both in-issue refills come back empty, so issue() bypasses to live
  // screening — which then exhausts the same attempt budget honestly.
  db.register_device(make_plain_model(0, 64, /*unstable=*/true));
  EXPECT_EQ(db.pool_remaining(0), 0u);
  Rng rng(7);
  EXPECT_THROW((void)db.issue(0, rng), NumericalError);
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  EXPECT_EQ(counter_or_zero(after, "auth.pool_misses") -
                counter_or_zero(before, "auth.pool_misses"),
            1u);
  // One registration refill + two dry in-issue refills.
  EXPECT_EQ(counter_or_zero(after, "auth.pool_refills") -
                counter_or_zero(before, "auth.pool_refills"),
            3u);
}

TEST(IssuancePool, CrashRecoveryRedrainIsScreenedByTheDurableLedger) {
  const std::string dir = unique_dir("redrain");
  fs::remove_all(dir);
  ChallengeBatch first;
  {
    ServerDatabase db = ServerDatabase::open(dir, pooled_config(64));
    db.register_device(enroll_model());
    Rng rng(1);
    first = db.issue(0, rng);
    EXPECT_EQ(first.replay_rejected, 0u);
    ASSERT_EQ(first.size(), 16u);
  }
  {
    // Reopen == crash recovery: the drain head is volatile and resets to 0,
    // so the first batch's entries are re-drained — and every one of them
    // is rejected by the replayed ledger, never re-issued.
    ServerDatabase db = ServerDatabase::open(dir, pooled_config(64));
    Rng rng(2);
    const ChallengeBatch second = db.issue(0, rng);
    EXPECT_EQ(second.replay_rejected, 16u);
    ASSERT_EQ(second.size(), 16u);
    const std::vector<Challenge> first_challenges = challenges_of(first);
    const std::set<Challenge> overlap(first_challenges.begin(), first_challenges.end());
    for (const Challenge& c : challenges_of(second))
      EXPECT_EQ(overlap.count(c), 0u) << "issued challenge repeated after recovery";
  }
  fs::remove_all(dir);
}

// --- POOL records in the store ----------------------------------------------

store::PoolPayload make_pool_payload(std::uint32_t stages, std::size_t entries) {
  store::PoolPayload pool;
  pool.stages = stages;
  pool.epoch = 1;
  pool.cursor = 987'654'321;
  const std::size_t stride = sim::packed_words(stages);
  pool.words.resize(entries * stride);
  for (std::size_t i = 0; i < entries; ++i) {
    Challenge c(stages);
    for (std::size_t j = 0; j < stages; ++j)
      c[j] = static_cast<std::uint8_t>((i + j) % 2);
    sim::pack_challenge_into(c, {pool.words.data() + i * stride, stride});
    pool.expected.push_back(static_cast<std::uint8_t>(i % 2));
  }
  return pool;
}

void expect_pools_equal(const store::PoolPayload& a, const store::PoolPayload& b) {
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.cursor, b.cursor);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.expected, b.expected);
}

TEST(PoolRecord, RoundTripsThroughStoreCompactionAndReplay) {
  const std::string dir = unique_dir("pool_roundtrip");
  fs::remove_all(dir);
  // Odd stage count on purpose: the packed rows (2 bytes each) and the
  // expected-bit bitmap exercise the sub-byte tails.
  const store::PoolPayload pool = make_pool_payload(13, 9);
  {
    store::EnrollmentStore s = store::EnrollmentStore::open(dir, {});
    s.register_device(make_plain_model(7, 13));
    store::PoolPayload stale = make_pool_payload(13, 4);
    stale.epoch = 0;
    s.record_pool(7, stale);
    s.record_pool(7, pool);  // append order is authority: latest wins
    store::PoolPayload got;
    ASSERT_TRUE(read_pool(s, 7, got));
    expect_pools_equal(pool, got);
    s.set_pool_head(7, 3);
    EXPECT_EQ(s.pool_entries_total(), 6u);
    s.compact();
    store::PoolPayload after;
    ASSERT_TRUE(read_pool(s, 7, after));
    expect_pools_equal(pool, after);
    store::PoolSlot slot;
    ASSERT_TRUE(s.pool_slot(7, slot));
    EXPECT_EQ(slot.head, 3u);  // head/epoch/cursor survive; only bytes moved
    EXPECT_EQ(s.pool_entries_total(), 6u);
  }
  {
    store::EnrollmentStore s = store::EnrollmentStore::open(dir, {});
    store::PoolSlot slot;
    ASSERT_TRUE(s.pool_slot(7, slot));
    EXPECT_EQ(slot.head, 0u);  // the drain head is volatile by contract
    EXPECT_EQ(slot.epoch, 1u);
    EXPECT_EQ(slot.cursor, 987'654'321u);
    store::PoolPayload got;
    ASSERT_TRUE(read_pool(s, 7, got));
    expect_pools_equal(pool, got);
    // Slices materialize exactly the asked-for window.
    std::vector<std::uint64_t> words;
    std::vector<std::uint8_t> expected;
    s.read_pool_slice(7, 3, 4, words, expected);
    ASSERT_EQ(words.size(), 4u);  // 13 stages: one word per row
    ASSERT_EQ(expected.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(words[i], pool.words[3 + i]);
      EXPECT_EQ(expected[i], pool.expected[3 + i]);
    }
  }
  fs::remove_all(dir);
}

TEST(PoolRecord, TruncationAtEveryByteKeepsTheAcknowledgedPrefix) {
  const std::string dir = unique_dir("pool_cut");
  fs::remove_all(dir);
  const store::PoolPayload pool = make_pool_payload(13, 9);
  std::uint64_t register_end = 0;
  std::uint64_t pool_end = 0;
  store::StoreOptions opts;
  opts.n_shards = 1;
  {
    store::EnrollmentStore s = store::EnrollmentStore::open(dir, opts);
    s.register_device(make_plain_model(0, 13));
    register_end = s.shard_size(0);
    s.record_pool(0, pool);
    pool_end = s.shard_size(0);
  }
  const std::string shard_path = dir + "/shard_0.log";
  const std::string scratch = unique_dir("pool_cut_scratch");
  for (std::uint64_t cut = 0; cut <= pool_end; ++cut) {
    fs::remove_all(scratch);
    fs::copy(dir, scratch, fs::copy_options::recursive);
    fs::resize_file(scratch + "/shard_0.log", cut);
    store::EnrollmentStore s = store::EnrollmentStore::open(scratch, opts);
    const std::uint64_t expect_size =
        cut >= pool_end ? pool_end : (cut >= register_end ? register_end : 0);
    EXPECT_EQ(s.shard_size(0), expect_size) << "cut " << cut;
    EXPECT_EQ(s.knows(0), cut >= register_end) << "cut " << cut;
    store::PoolPayload got;
    if (cut >= pool_end) {
      ASSERT_TRUE(read_pool(s, 0, got)) << "cut " << cut;
      expect_pools_equal(pool, got);
    } else {
      EXPECT_FALSE(read_pool(s, 0, got)) << "cut " << cut;
      EXPECT_EQ(s.pool_entries_total(), 0u) << "cut " << cut;
    }
  }
  fs::remove_all(scratch);
  fs::remove_all(dir);
  (void)shard_path;
}

// --- zero-copy mapped model serving ------------------------------------------

TEST(MappedServing, RegisterRecordFloatRegionsStayEightByteAligned) {
  const std::string dir = unique_dir("alignment");
  fs::remove_all(dir);
  store::StoreOptions opts;
  opts.n_shards = 1;
  store::EnrollmentStore s = store::EnrollmentStore::open(dir, opts);
  // Interleave REGISTERs with odd-length ISSUE records (13-stage keys pack
  // to 2 bytes) so every alignment phase is visited.
  for (std::uint64_t id = 0; id < 5; ++id) {
    s.register_device(make_plain_model(id, 13));
    const std::vector<std::uint64_t> key = {id % 2 == 0 ? 0 : (1ULL << 13) - 1};
    s.ledger(id).insert(key);
    s.record_issued(id, 13, key);
    // REGISTER payload: 8 bytes of geometry, then the f64 region — at
    // record offset + header(16) + 8. The pad record in front guarantees
    // this lands on an 8-byte boundary for every device.
    EXPECT_EQ((s.device_record(id).offset + 24) % 8, 0u) << "device " << id;
  }
  fs::remove_all(dir);
}

TEST(MappedServing, ColdModelViewsAreZeroCopyBitExactAndSurviveCompaction) {
  const std::string dir = unique_dir("mmap_serving");
  fs::remove_all(dir);
  store::StoreOptions opts;
  opts.n_shards = 1;
  opts.cache_capacity = 1;
  {
    store::EnrollmentStore s = store::EnrollmentStore::open(dir, opts);
    for (std::uint64_t id = 0; id < 3; ++id) s.register_device(make_plain_model(id, 64));
  }
  // Reopen: the shard mapping now covers every record written above.
  store::EnrollmentStore s = store::EnrollmentStore::open(dir, opts);
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  ModelView held;
  for (std::uint64_t id = 0; id < 3; ++id) {
    const ModelView view = s.model_view(id);
    const ServerModel ref = make_plain_model(id, 64);
    const ModelView expect = ModelView::of(ref);
    ASSERT_EQ(view.puf_count(), expect.puf_count());
    ASSERT_EQ(view.stages(), expect.stages());
    EXPECT_EQ(view.chip_id(), id);
    for (std::size_t p = 0; p < view.puf_count(); ++p) {
      const std::span<const double> got = view.weights(p);
      const std::span<const double> want = expect.weights(p);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < got.size(); ++k)
        ASSERT_EQ(got[k], want[k]) << "id " << id << " puf " << p << " w" << k;
    }
    if (id == 0) held = view;
  }
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  // The cache is cold (capacity 1, nothing decoded): every resolution was a
  // mapped view, no parse, no copy.
  EXPECT_EQ(counter_or_zero(after, "db.mmap_hits") -
                counter_or_zero(before, "db.mmap_hits"),
            3u);
  EXPECT_GT(counter_or_zero(after, "db.mmap_bytes"),
            counter_or_zero(before, "db.mmap_bytes"));
  // Compaction rewrites the shard and remaps it; the held view co-owns the
  // OLD mapping and must keep reading the same bits.
  s.compact();
  const ServerModel ref = make_plain_model(0, 64);
  const ModelView expect = ModelView::of(ref);
  for (std::size_t p = 0; p < held.puf_count(); ++p) {
    const std::span<const double> got = held.weights(p);
    const std::span<const double> want = expect.weights(p);
    for (std::size_t k = 0; k < got.size(); ++k) ASSERT_EQ(got[k], want[k]);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace xpuf::puf
