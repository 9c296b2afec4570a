// Streaming-vs-materialized equivalence suite.
//
// The streaming enrollment pipeline promises bit-identical results to the
// materialized path for any chunk size and any thread count. These tests pin
// that promise at every layer: the chunked scan producer against
// scan_individual and its per-cell oracle, the parity-word normal-equations
// accumulator against the one-shot gram/matvec_transposed/Cholesky kernels
// over a feature_fill Phi, the end-to-end Enroller::enroll and
// enroll_from_scan against the materialized-fit oracle, and the
// GEMM-backed logistic-regression objective against a scalar replica of the
// historical row-loop math.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/math.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/streaming.hpp"
#include "oracle/oracle.hpp"
#include "puf/enrollment.hpp"
#include "sim/linear.hpp"
#include "sim/population.hpp"
#include "sim/tester.hpp"

namespace xpuf {
namespace {

using sim::Challenge;

/// Restores the global lane count on scope exit so a failing assertion in a
/// multi-thread section cannot leak its thread count into later tests.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(ThreadPool::global_threads()) {}
  ~ThreadGuard() { ThreadPool::set_global_threads(saved_); }

 private:
  std::uint64_t saved_;
};

sim::PopulationConfig small_lot() {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = 3;
  cfg.seed = 4242;
  return cfg;
}

/// Drains a stream into materialized-scan shape (soft[p][c], stable[p][c]),
/// with every chunk's packed words and parity words concatenated. A cell is
/// stable when its soft response is exactly 0.0 or 1.0 (soft = ones /
/// trials, so that is the counter seeing no flips).
struct CollectedScan {
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> parity;
  std::vector<std::size_t> offsets;
  std::vector<std::vector<double>> soft;
  std::vector<std::vector<std::uint8_t>> stable;
};

CollectedScan collect(sim::ChipScanStream& stream, std::size_t n_pufs) {
  CollectedScan out;
  out.soft.resize(n_pufs);
  out.stable.resize(n_pufs);
  sim::ScanChunk chunk;
  while (stream.next(chunk)) {
    out.offsets.push_back(chunk.offset);
    out.words.insert(out.words.end(), chunk.words.begin(), chunk.words.end());
    out.parity.insert(out.parity.end(), chunk.parity.begin(), chunk.parity.end());
    for (std::size_t p = 0; p < n_pufs; ++p) {
      out.soft[p].insert(out.soft[p].end(), chunk.soft[p].begin(), chunk.soft[p].end());
      for (const double soft : chunk.soft[p])
        out.stable[p].push_back(soft == 0.0 || soft == 1.0 ? 1 : 0);
    }
  }
  return out;
}

/// What a streamed scan is checked against: the production materialized
/// scan, or the per-cell scalar oracle (tests/oracle/).
enum class Reference { kProduction, kScalarOracle };

/// The materialized scan of `total` challenges by a tester seeded like the
/// stream's, and that tester's next draws.
struct MaterializedScan {
  std::vector<Challenge> challenges;
  sim::ChipSoftScan scan;
  std::vector<Challenge> next;
};

template <class Tester>
MaterializedScan materialize(const sim::XorPufChip& chip, std::uint64_t trials,
                             std::uint64_t seed, std::size_t total) {
  Rng rng(seed);
  Tester tester(sim::Environment::nominal(), trials, rng.fork());
  MaterializedScan out;
  out.challenges = tester.random_challenges(chip, total);
  out.scan = tester.scan_individual(chip, out.challenges);
  out.next = tester.random_challenges(chip, 8);
  return out;
}

MaterializedScan materialize(Reference ref, const sim::XorPufChip& chip, std::uint64_t trials,
                             std::uint64_t seed, std::size_t total) {
  return ref == Reference::kProduction
             ? materialize<sim::ChipTester>(chip, trials, seed, total)
             : materialize<oracle::ScalarTester>(chip, trials, seed, total);
}

class ScanStreamTest : public ::testing::TestWithParam<Reference> {
 protected:
  ScanStreamTest() : pop_(small_lot()) {}
  sim::ChipPopulation pop_;
};

TEST_P(ScanStreamTest, MatchesMaterializedScanCellForCell) {
  const std::size_t total = 150;
  Rng r1(77);
  sim::ChipTester streamer(sim::Environment::nominal(), 500, r1.fork());

  sim::ChipScanStream stream = streamer.stream_individual(pop_.chip(0), total, 64);
  const CollectedScan streamed = collect(stream, 3);

  const MaterializedScan ref = materialize(GetParam(), pop_.chip(0), 500, 77, total);
  const std::vector<Challenge>& challenges = ref.challenges;
  const sim::ChipSoftScan& scan = ref.scan;

  // The packed words unpack to the materialized challenges, and the parity
  // words carry exactly their Phi signs.
  const std::size_t stages = pop_.chip(0).stages();
  const std::size_t n_words = sim::packed_words(stages);
  ASSERT_EQ(streamed.words.size(), total * n_words);
  std::vector<double> phi(stages + 1);
  Challenge unpacked;
  for (std::size_t c = 0; c < total; ++c) {
    sim::unpack_challenge_into({streamed.words.data() + c * n_words, n_words}, stages,
                               unpacked);
    ASSERT_EQ(unpacked, challenges[c]) << "challenge " << c;
    sim::feature_fill(challenges[c], phi.data());
    for (std::size_t i = 0; i < stages; ++i) {
      const std::uint64_t bit = streamed.parity[c * n_words + i / 64] >> (i % 64);
      ASSERT_EQ(sim::parity_sign(bit), phi[i]) << "challenge " << c << " stage " << i;
    }
  }
  for (std::size_t p = 0; p < 3; ++p) {
    ASSERT_EQ(streamed.soft[p].size(), total);
    for (std::size_t c = 0; c < total; ++c) {
      EXPECT_EQ(streamed.soft[p][c], scan.soft[p][c]) << "PUF " << p << " cell " << c;
      EXPECT_EQ(streamed.stable[p][c] != 0, scan.stable[p][c] == true);
    }
  }

  // The stream pre-advances the tester's generator past the challenge draws
  // at construction, so both testers end in the same state: their next
  // challenge batches must agree draw for draw.
  EXPECT_EQ(streamer.random_challenges(pop_.chip(0), 8), ref.next);
}

TEST_P(ScanStreamTest, ChunkSizeNeverChangesTheBits) {
  const std::size_t total = 101;  // prime-ish: exercises ragged final chunks
  CollectedScan reference;
  bool have_reference = false;
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}, total}) {
    Rng rng(99);
    sim::ChipTester tester(sim::Environment::nominal(), 300, rng.fork());
    sim::ChipScanStream stream = tester.stream_individual(pop_.chip(0), total, chunk);
    const CollectedScan got = collect(stream, 3);
    if (!have_reference) {
      // The one-challenge chunks against the reference's materialized scan.
      const MaterializedScan ref = materialize(GetParam(), pop_.chip(0), 300, 99, total);
      for (std::size_t p = 0; p < 3; ++p) {
        EXPECT_EQ(got.soft[p], ref.scan.soft[p]) << "PUF " << p;
        for (std::size_t c = 0; c < total; ++c)
          EXPECT_EQ(got.stable[p][c] != 0, ref.scan.stable[p][c] == true);
      }
      reference = got;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(got.words, reference.words) << "chunk " << chunk;
    EXPECT_EQ(got.parity, reference.parity) << "chunk " << chunk;
    EXPECT_EQ(got.soft, reference.soft) << "chunk " << chunk;
    EXPECT_EQ(got.stable, reference.stable) << "chunk " << chunk;
    ASSERT_EQ(got.offsets.size(), (total + chunk - 1) / chunk) << "chunk " << chunk;
    for (std::size_t i = 0; i < got.offsets.size(); ++i)
      EXPECT_EQ(got.offsets[i], i * chunk) << "chunk " << chunk;
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, ScanStreamTest,
                         ::testing::Values(Reference::kProduction,
                                           Reference::kScalarOracle));

/// A scan shape against ChipScanStream::kRetainBytes. With one PUF and one
/// stage a challenge costs 10 bytes of the budget (one parity word, one
/// count), so about 419k challenges fit.
struct RetentionCase {
  const char* name;
  std::size_t total;
  std::size_t chunk;
  std::size_t retained;  ///< challenges the first pass keeps
};

constexpr std::size_t kBytesPerOneStageCell = sizeof(std::uint64_t) + sizeof(std::uint16_t);
constexpr std::size_t kStraddleChunk = 65536;
constexpr std::size_t kKeptChunks = sim::ChipScanStream::kRetainBytes /
                                    (kStraddleChunk * kBytesPerOneStageCell);

const std::vector<RetentionCase>& retention_cases() {
  static const std::vector<RetentionCase> cases{
      {"fits", 90, 32, 90},
      // Whole chunks fit up to the budget; the ragged last one is measured
      // again on every replay.
      {"straddles", (kKeptChunks + 1) * kStraddleChunk - 1000, kStraddleChunk,
       kKeptChunks * kStraddleChunk},
      // The first chunk alone is over the budget: nothing is kept.
      {"exceeds", sim::ChipScanStream::kRetainBytes / kBytesPerOneStageCell + 1000,
       sim::ChipScanStream::kRetainBytes / kBytesPerOneStageCell + 1000, 0},
  };
  return cases;
}

sim::PopulationConfig one_stage_puf() {
  sim::PopulationConfig cfg = small_lot();
  cfg.n_pufs_per_chip = 1;
  cfg.device.stages = 1;
  return cfg;
}

TEST(ScanStream, ResetReplaysBitIdentically) {
  ThreadGuard guard;
  sim::ChipPopulation pop(one_stage_puf());
  for (const RetentionCase& rc : retention_cases()) {
    CollectedScan reference;
    for (std::uint64_t threads : {1u, 2u, 8u}) {
      ThreadPool::set_global_threads(threads);
      SCOPED_TRACE(::testing::Message() << rc.name << ", " << threads << " threads");
      Rng rng(5);
      sim::ChipTester tester(sim::Environment::nominal(), 400, rng.fork());
      sim::ChipScanStream stream = tester.stream_individual(pop.chip(0), rc.total, rc.chunk);
      const CollectedScan first = collect(stream, 1);
      EXPECT_EQ(stream.retained(), rc.retained);
      stream.reset();
      EXPECT_EQ(stream.position(), 0u);
      const CollectedScan replay = collect(stream, 1);
      EXPECT_EQ(first.words, replay.words);
      EXPECT_EQ(first.parity, replay.parity);
      EXPECT_EQ(first.soft, replay.soft);
      EXPECT_EQ(first.stable, replay.stable);
      EXPECT_EQ(first.offsets, replay.offsets);
      if (threads == 1) {
        reference = first;
        continue;
      }
      EXPECT_EQ(first.soft, reference.soft);
      EXPECT_EQ(first.words, reference.words);
    }
  }
}

TEST(ScanStream, ReplaysOnlyWhatTheBudgetDidNotKeep) {
  static Counter& measurements = MetricsRegistry::global().counter("tester.measurements");
  // One, two and three words per challenge: kept chunks rebuild their
  // packed words from the parity words across word boundaries.
  for (const std::size_t stages : {1u, 64u, 65u, 129u}) {
    sim::PopulationConfig pcfg = small_lot();  // 3 PUFs
    pcfg.device.stages = stages;
    sim::ChipPopulation pop(pcfg);
    SCOPED_TRACE(::testing::Message() << "stages " << stages);
    // A reset mid-scan, a partial replay, then a full pass: kept chunks are
    // never measured again, the rest are, and the bits never change.
    Rng rng(6);
    sim::ChipTester tester(sim::Environment::nominal(), 300, rng.fork());
    sim::ChipScanStream stream = tester.stream_individual(pop.chip(0), 100, 16);
    sim::ScanChunk chunk;
    const std::uint64_t before = measurements.total();
    ASSERT_TRUE(stream.next(chunk));
    ASSERT_TRUE(stream.next(chunk));
    stream.reset();
    const CollectedScan first = collect(stream, 3);
    EXPECT_EQ(stream.retained(), 100u);
    EXPECT_EQ(measurements.total() - before, 100u * 3);
    stream.reset();
    const CollectedScan replay = collect(stream, 3);
    EXPECT_EQ(measurements.total() - before, 100u * 3);
    EXPECT_EQ(first.words, replay.words);
    EXPECT_EQ(first.soft, replay.soft);
    EXPECT_EQ(first.stable, replay.stable);

    // Counts past 16 bits are never kept: every replay measures again.
    Rng rng2(6);
    sim::ChipTester wide(sim::Environment::nominal(), 70000, rng2.fork());
    sim::ChipScanStream unkept = wide.stream_individual(pop.chip(0), 40, 16);
    const std::uint64_t wide_before = measurements.total();
    const CollectedScan wide_first = collect(unkept, 3);
    unkept.reset();
    const CollectedScan wide_replay = collect(unkept, 3);
    EXPECT_EQ(unkept.retained(), 0u);
    EXPECT_EQ(measurements.total() - wide_before, 2u * 40 * 3);
    EXPECT_EQ(wide_first.soft, wide_replay.soft);
    EXPECT_EQ(wide_first.stable, wide_replay.stable);
  }
}

TEST(ScanStream, ThreadCountNeverChangesTheBits) {
  ThreadGuard guard;
  sim::ChipPopulation pop(small_lot());
  CollectedScan reference;
  bool have_reference = false;
  for (std::uint64_t threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    Rng rng(123);
    sim::ChipTester tester(sim::Environment::nominal(), 300, rng.fork());
    sim::ChipScanStream stream = tester.stream_individual(pop.chip(0), 130, 33);
    const CollectedScan got = collect(stream, 3);
    if (!have_reference) {
      reference = got;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(got.soft, reference.soft) << threads << " threads";
    EXPECT_EQ(got.stable, reference.stable) << threads << " threads";
  }
}

TEST(ScanStream, RejectsZeroChunk) {
  sim::ChipPopulation pop(small_lot());
  Rng rng(1);
  sim::ChipTester tester(sim::Environment::nominal(), 100, rng.fork());
  EXPECT_THROW(tester.stream_individual(pop.chip(0), 10, 0), std::invalid_argument);
}

// --- StreamingNormalEquations vs the one-shot kernels --------------------

/// The oracle: linalg::gram / matvec_transposed over the feature_fill Phi of
/// the same challenges — the kernels the materialized fit runs.
struct OneShot {
  linalg::Matrix gram;
  std::vector<linalg::Vector> xty;
};

OneShot one_shot(const std::vector<Challenge>& challenges,
                 const std::vector<std::vector<double>>& ys) {
  const std::size_t d = challenges.front().size() + 1;
  linalg::Matrix phi(challenges.size(), d);
  for (std::size_t r = 0; r < challenges.size(); ++r)
    sim::feature_fill(challenges[r], phi.row(r));
  OneShot out{linalg::gram(phi), {}};
  for (const auto& y : ys) out.xty.push_back(linalg::matvec_transposed(phi, linalg::Vector(y)));
  return out;
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST(StreamingNormalEquations, ParityAccumulateMatchesOneShotGramAndXtyBitwise) {
  Rng rng(2718);
  const std::size_t n = 200;  // four 64-row column words, the last one partial
  for (std::size_t stages = 1; stages <= 129; ++stages) {
    const std::size_t d = stages + 1;
    const std::size_t n_words = sim::packed_words(stages);
    std::vector<std::uint64_t> words(n * n_words);
    for (std::size_t r = 0; r < n; ++r)
      sim::random_packed_challenge_into({words.data() + r * n_words, n_words}, stages, rng);
    std::vector<std::uint64_t> parity(words.size());
    sim::suffix_parity_words(words, stages, parity);
    // Garbage above `stages` in each row's last word must be ignored.
    if (stages % 64 != 0)
      for (std::size_t r = 0; r < n; ++r)
        parity[r * n_words + n_words - 1] |= rng.next_u64() << (stages % 64);
    std::vector<Challenge> challenges(n);
    for (std::size_t r = 0; r < n; ++r)
      sim::unpack_challenge_into({words.data() + r * n_words, n_words}, stages, challenges[r]);
    // Targets with signed zeros: +/-0 * -1 must flip like the multiply does.
    std::vector<std::vector<double>> ys(10, std::vector<double>(n));
    for (auto& y : ys)
      for (std::size_t r = 0; r < n; ++r)
        y[r] = r % 17 == 0 ? 0.0 : r % 19 == 0 ? -0.0 : rng.uniform(-1.0, 1.0);
    const OneShot oracle = one_shot(challenges, ys);

    // One target, three (a partial AVX2 residual group, though Xty is per
    // target) and the paper's ten.
    for (const std::size_t targets : {1u, 3u, 10u}) {
      for (const std::size_t chunk : {1u, 7u, 4096u}) {
        SCOPED_TRACE(::testing::Message() << "stages " << stages << ", targets " << targets
                                          << ", chunk " << chunk);
        ml::StreamingNormalEquations acc(d, targets);
        for (std::size_t pos = 0; pos < n; pos += chunk) {
          const std::size_t m = std::min(chunk, n - pos);
          std::vector<std::vector<double>> chunk_y(targets);
          for (std::size_t t = 0; t < targets; ++t)
            chunk_y[t].assign(ys[t].begin() + static_cast<std::ptrdiff_t>(pos),
                              ys[t].begin() + static_cast<std::ptrdiff_t>(pos + m));
          acc.accumulate({parity.data() + pos * n_words, m * n_words}, chunk_y);
        }
        ASSERT_EQ(acc.rows(), n);
        const linalg::Matrix g = acc.gram();
        ASSERT_EQ(g.rows(), d);
        ASSERT_TRUE(same_bits(g.row(0), oracle.gram.row(0), d * d)) << "Gram";
        for (std::size_t t = 0; t < targets; ++t)
          ASSERT_TRUE(same_bits(acc.xty(t).data(), oracle.xty[t].data(), d)) << "Xty " << t;
      }
    }
  }
}

TEST(StreamingNormalEquations, SolveMatchesOneShotCholeskyBitwise) {
  Rng rng(31);
  const std::size_t stages = 32, d = stages + 1, n = 97, targets = 2;
  std::vector<Challenge> challenges = sim::random_challenges(stages, n, rng);
  std::vector<std::uint64_t> parity(n), words(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t i = 0; i < stages; ++i)
      words[r] |= static_cast<std::uint64_t>(challenges[r][i]) << i;
  sim::suffix_parity_words(words, stages, parity);
  std::vector<std::vector<double>> ys(targets);
  for (auto& y : ys)
    for (std::size_t r = 0; r < n; ++r) y.push_back(rng.uniform(0.0, 1.0));

  // Ragged chunks (sizes 1, 2, 3, ... wrapping) stress the any-partition
  // contract end to end.
  ml::StreamingNormalEquations acc(d, targets);
  std::size_t pos = 0, step = 1;
  while (pos < n) {
    const std::size_t m = std::min(step, n - pos);
    std::vector<std::vector<double>> chunk_y(targets);
    for (std::size_t t = 0; t < targets; ++t)
      for (std::size_t r = 0; r < m; ++r) chunk_y[t].push_back(ys[t][pos + r]);
    acc.accumulate({parity.data() + pos, m}, chunk_y);
    pos += m;
    step = step % 5 + 1;
  }

  const linalg::Matrix w = acc.solve();
  ASSERT_EQ(w.rows(), targets);
  ASSERT_EQ(w.cols(), d);
  // One-shot reference: the kernel sequence solve_least_squares' normal-
  // equations route runs on a materialized Phi.
  const OneShot oracle = one_shot(challenges, ys);
  const linalg::Cholesky chol(oracle.gram);
  for (std::size_t t = 0; t < targets; ++t) {
    const linalg::Vector ref = chol.solve(oracle.xty[t]);
    for (std::size_t c = 0; c < d; ++c)
      EXPECT_EQ(w(t, c), ref[c]) << "target " << t << " coefficient " << c;
    double sum = 0.0;
    for (double v : ys[t]) sum += v;
    EXPECT_EQ(acc.target_mean(t), sum / static_cast<double>(n));
  }
}

TEST(StreamingNormalEquations, RejectsUnderdeterminedAndShapeMismatch) {
  EXPECT_THROW(ml::StreamingNormalEquations(1, 1), std::invalid_argument);  // no stage
  ml::StreamingNormalEquations acc(4, 1);
  const std::vector<std::uint64_t> parity{0b101, 0b011};
  std::vector<std::vector<double>> y{{1.0, 0.0}};
  acc.accumulate(parity, y);
  EXPECT_THROW(acc.solve(), std::invalid_argument);  // 2 rows < 4 features
  std::vector<std::vector<double>> short_y{{1.0}};
  EXPECT_THROW(acc.accumulate(parity, short_y), std::invalid_argument);
  std::vector<std::vector<double>> two_targets{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_THROW(acc.accumulate(parity, two_targets), std::invalid_argument);
  // 66 stages take two words per row: three words are a partial row.
  ml::StreamingNormalEquations wide(67, 1);
  const std::vector<std::uint64_t> partial{1, 2, 3};
  std::vector<std::vector<double>> one_row{{0.5}};
  EXPECT_THROW(wide.accumulate(partial, one_row), std::invalid_argument);
}

TEST(StreamingResiduals, MatchesDeriveThresholdsAndScalarSumsBitwise) {
  // Targets in [0, 1] with exact 0.0 and 1.0 rows. Predictions take three
  // values, the extreme one tied between +0.0 and -0.0 (the lowest on even
  // targets, the highest on odd ones), so the strict compares decide which
  // zero each threshold keeps. Odd targets also get a NaN prediction and
  // targets 2, 5, 8 a NaN target row; the others keep finite sums for the
  // R^2 check.
  Rng rng(77);
  const std::size_t n = 203;
  const double even_pool[3] = {0.0, -0.0, 0.5};
  const double odd_pool[3] = {-0.5, 0.0, -0.0};
  for (const std::size_t targets : {1u, 3u, 4u, 5u, 8u, 9u}) {
    std::vector<double> pred(n * targets);
    std::vector<std::vector<double>> ys(targets, std::vector<double>(n));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t t = 0; t < targets; ++t) {
        const std::uint64_t k = rng.uniform_below(3);
        const bool nan_pred = t % 2 == 1 && r == 5 + t;
        pred[r * targets + t] = nan_pred ? std::nan("") : t % 2 == 0 ? even_pool[k] : odd_pool[k];
        const std::uint64_t j = rng.uniform_below(5);
        const bool nan_y = t % 3 == 2 && r == 9;
        ys[t][r] = nan_y ? std::nan("") : j == 0 ? 0.0 : j == 1 ? 1.0 : rng.uniform(0.0, 1.0);
      }
    }
    std::vector<double> means(targets);
    for (std::size_t t = 0; t < targets; ++t) means[t] = 0.3 + 0.05 * static_cast<double>(t);
    for (const std::size_t chunk : {1u, 7u, 4096u}) {
      SCOPED_TRACE(::testing::Message() << "targets " << targets << ", chunk " << chunk);
      ml::StreamingResiduals res(means);
      for (std::size_t pos = 0; pos < n; pos += chunk) {
        const std::size_t m = std::min(chunk, n - pos);
        std::vector<std::vector<double>> chunk_y(targets);
        for (std::size_t t = 0; t < targets; ++t)
          chunk_y[t].assign(ys[t].begin() + static_cast<std::ptrdiff_t>(pos),
                            ys[t].begin() + static_cast<std::ptrdiff_t>(pos + m));
        res.accumulate({pred.data() + pos * targets, m * targets}, chunk_y);
      }
      for (std::size_t t = 0; t < targets; ++t) {
        std::vector<double> pt(n);
        for (std::size_t r = 0; r < n; ++r) pt[r] = pred[r * targets + t];
        const puf::ThresholdPair want = puf::derive_thresholds(pt, ys[t]);
        const puf::ThresholdPair got =
            puf::finalize_thresholds(res.lowest_above_zero(t), res.highest_below_one(t));
        EXPECT_TRUE(same_bits(&got.thr0, &want.thr0, 1)) << "thr0, target " << t;
        EXPECT_TRUE(same_bits(&got.thr1, &want.thr1, 1)) << "thr1, target " << t;
        double rss = 0.0, tss = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
          const double e = pt[r] - ys[t][r];
          rss += e * e;
          const double d = ys[t][r] - means[t];
          tss += d * d;
        }
        if (t % 2 == 1 || t % 3 == 2) continue;
        const double r2 = tss > 0.0 ? 1.0 - rss / tss : 0.0;
        const double got_r2 = res.r_squared(t);
        EXPECT_TRUE(same_bits(&got_r2, &r2, 1)) << "R^2, target " << t;
      }
    }
  }
  EXPECT_THROW(ml::StreamingResiduals(std::vector<double>{}), std::invalid_argument);
}

// --- End-to-end: streaming enroll vs materialized enroll ------------------

void expect_models_identical(const puf::ServerModel& a, const puf::ServerModel& b) {
  ASSERT_EQ(a.puf_count(), b.puf_count());
  for (std::size_t p = 0; p < a.puf_count(); ++p) {
    EXPECT_EQ(a.puf(p).model.weights().raw(), b.puf(p).model.weights().raw())
        << "PUF " << p;
    EXPECT_EQ(a.puf(p).thresholds.thr0, b.puf(p).thresholds.thr0) << "PUF " << p;
    EXPECT_EQ(a.puf(p).thresholds.thr1, b.puf(p).thresholds.thr1) << "PUF " << p;
    EXPECT_EQ(a.puf(p).train_r_squared, b.puf(p).train_r_squared) << "PUF " << p;
  }
}

TEST(StreamingEnrollment, BitIdenticalToMaterializedAcrossChunksAndThreads) {
  ThreadGuard guard;
  puf::EnrollmentConfig cfg;
  cfg.training_challenges = 400;
  cfg.trials = 200;

  // One, two and three parity words per challenge, with the word-boundary
  // stage counts; one PUF, a few, one whole four-PUF residual vector, one
  // past it, and the paper's ten.
  for (const std::size_t stages : {1u, 32u, 64u, 65u, 129u}) {
    for (const std::size_t n_pufs : {1u, 3u, 4u, 5u, 10u}) {
      sim::PopulationConfig pcfg = small_lot();
      pcfg.n_pufs_per_chip = n_pufs;
      pcfg.device.stages = stages;
      sim::ChipPopulation pop(pcfg);

      // The materialized reference, computed once on one thread.
      ThreadPool::set_global_threads(1);
      Rng ref_rng(31415);
      const puf::ServerModel reference = oracle::materialized_enroll(cfg, pop.chip(0), ref_rng);

      for (std::size_t chunk : {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
        for (std::uint64_t threads : {1u, 2u, 8u}) {
          ThreadPool::set_global_threads(threads);
          puf::EnrollmentConfig scfg = cfg;
          scfg.chunk_challenges = chunk;
          Rng rng(31415);
          const puf::ServerModel streamed = puf::Enroller(scfg).enroll(pop.chip(0), rng);
          SCOPED_TRACE(::testing::Message() << "stages " << stages << ", pufs " << n_pufs
                                            << ", chunk " << chunk << ", threads " << threads);
          expect_models_identical(streamed, reference);
          // Both paths must consume the caller's generator identically.
          Rng expected(31415);
          expected.fork();
          EXPECT_EQ(rng.next_u64(), expected.next_u64());
        }
      }
      // enroll_from_scan runs the same fit over a materialized scan of the
      // same draws.
      for (std::uint64_t threads : {1u, 8u}) {
        ThreadPool::set_global_threads(threads);
        Rng rng(31415);
        sim::ChipTester tester(cfg.environment, cfg.trials, rng.fork());
        const sim::ChipSoftScan scan = tester.scan_individual(
            pop.chip(0), tester.random_challenges(pop.chip(0), cfg.training_challenges));
        SCOPED_TRACE(::testing::Message() << "from scan: stages " << stages << ", pufs "
                                          << n_pufs << ", threads " << threads);
        expect_models_identical(puf::Enroller(cfg).enroll_from_scan(0, scan), reference);
      }
    }
  }

  // Scans that fit the stream's retention budget, straddle it, and exceed
  // it: the replayed part changes cost, never bits.
  static Counter& measurements = MetricsRegistry::global().counter("tester.measurements");
  sim::ChipPopulation pop(one_stage_puf());
  for (const RetentionCase& rc : retention_cases()) {
    puf::EnrollmentConfig rcfg = cfg;
    rcfg.training_challenges = rc.total;
    rcfg.chunk_challenges = rc.chunk;
    ThreadPool::set_global_threads(1);
    Rng ref_rng(2024);
    const puf::ServerModel reference = oracle::materialized_enroll(rcfg, pop.chip(0), ref_rng);
    for (std::uint64_t threads : {1u, 2u, 8u}) {
      ThreadPool::set_global_threads(threads);
      SCOPED_TRACE(::testing::Message() << rc.name << ", " << threads << " threads");
      Rng rng(2024);
      const std::uint64_t before = measurements.total();
      const puf::ServerModel streamed = puf::Enroller(rcfg).enroll(pop.chip(0), rng);
      // One measurement per cell, plus a second one for every cell past
      // the retention budget.
      EXPECT_EQ(measurements.total() - before, 2 * rc.total - rc.retained);
      expect_models_identical(streamed, reference);
    }
  }
}

TEST(StreamingEnrollment, MeasuresEveryCellOnce) {
  static Counter& measurements = MetricsRegistry::global().counter("tester.measurements");
  sim::ChipPopulation pop(small_lot());
  puf::EnrollmentConfig cfg;
  cfg.training_challenges = 5000;  // the paper's training set
  cfg.trials = 10'000;
  for (std::size_t chunk : {std::size_t{64}, std::size_t{4096}}) {
    cfg.chunk_challenges = chunk;
    Rng rng(9);
    const std::uint64_t before = measurements.total();
    (void)puf::Enroller(cfg).enroll(pop.chip(0), rng);
    EXPECT_EQ(measurements.total() - before, cfg.training_challenges * 3) << "chunk " << chunk;
  }
}

TEST(StreamingEnrollment, FailsOnDeployedChipLikeMaterialized) {
  sim::PopulationConfig pcfg = small_lot();
  pcfg.seed = 31337;
  sim::ChipPopulation pop(pcfg);
  pop.chip(0).blow_fuses();
  puf::EnrollmentConfig cfg;
  cfg.training_challenges = 10;
  cfg.trials = 100;
  Rng rng(1);
  EXPECT_THROW(puf::Enroller(cfg).enroll(pop.chip(0), rng), AccessError);
}

// --- GEMM-backed logistic objective vs a scalar replica -------------------

// The historical scalar objective, reproduced with plain loops on the same
// fixed 512-row shard grid the GEMM path uses: per-row ascending-index dot,
// softplus loss and error accumulated per shard, shard partials combined in
// ascending shard order, gradient shard partials likewise. Any bit of drift
// between this and LogisticRegression::objective means the GEMM rewrite
// changed the math.
double scalar_objective(const ml::Dataset& data, double l2, const linalg::Vector& w,
                        linalg::Vector& grad) {
  constexpr std::size_t kShard = 512;
  const std::size_t n = data.size();
  const std::size_t d = data.features();
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> err(n);
  double total_loss = 0.0;
  for (std::size_t begin = 0; begin < n; begin += kShard) {
    const std::size_t end = std::min(begin + kShard, n);
    double shard = 0.0;
    for (std::size_t r = begin; r < end; ++r) {
      double z = 0.0;
      for (std::size_t c = 0; c < d; ++c) z += data.x(r, c) * w[c];
      const double t = data.y[r] >= 0.5 ? 1.0 : 0.0;
      shard += t > 0.5 ? softplus(-z) : softplus(z);
      err[r] = (sigmoid(z) - t) * inv_n;
    }
    total_loss += shard;
  }
  grad = linalg::Vector(d);
  for (std::size_t begin = 0; begin < n; begin += kShard) {
    const std::size_t end = std::min(begin + kShard, n);
    std::vector<double> shard(d, 0.0);
    for (std::size_t r = begin; r < end; ++r) {
      if (err[r] == 0.0) continue;  // matmul_tn skips exact-zero terms
      for (std::size_t c = 0; c < d; ++c) shard[c] += err[r] * data.x(r, c);
    }
    for (std::size_t c = 0; c < d; ++c) grad[c] += shard[c];
  }
  double loss = total_loss * inv_n;
  for (std::size_t c = 0; c < d; ++c) {
    loss += 0.5 * l2 * w[c] * w[c];
    grad[c] += l2 * w[c];
  }
  return loss;
}

ml::Dataset lr_golden_dataset(std::size_t n, std::size_t d, Rng& rng) {
  ml::Dataset data;
  data.reserve(n, d);
  std::vector<double> row(d);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) row[c] = rng.uniform(-1.0, 1.0);
    // Noisy linear labels: separable enough to fit, noisy enough that the
    // sigmoid never saturates to an exact 0/1 during these tests.
    const double s = row[0] - 0.5 * row[1] + 0.25 * rng.uniform(-1.0, 1.0);
    data.add(row, s > 0.0 ? 1.0 : 0.0);
  }
  return data;
}

TEST(LogisticGemmGolden, ObjectiveAndGradientMatchScalarReplicaBitwise) {
  Rng rng(161803);
  // > 512 rows so the shard grid has interior boundaries AND a ragged tail.
  const ml::Dataset data = lr_golden_dataset(1300, 7, rng);
  ml::LogisticRegressionOptions opts;
  opts.l2 = 1e-4;
  const ml::LogisticRegression lr(opts);
  for (int trial = 0; trial < 5; ++trial) {
    linalg::Vector w(7);
    for (std::size_t c = 0; c < 7; ++c) w[c] = rng.uniform(-2.0, 2.0);
    linalg::Vector grad_gemm, grad_scalar;
    const double loss_gemm = lr.objective(data, w, grad_gemm);
    const double loss_scalar = scalar_objective(data, opts.l2, w, grad_scalar);
    EXPECT_EQ(loss_gemm, loss_scalar) << "trial " << trial;
    ASSERT_EQ(grad_gemm.size(), grad_scalar.size());
    for (std::size_t c = 0; c < 7; ++c)
      EXPECT_EQ(grad_gemm[c], grad_scalar[c]) << "trial " << trial << " coeff " << c;
  }
}

TEST(LogisticGemmGolden, FitIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(271828);
  const ml::Dataset data = lr_golden_dataset(1100, 6, rng);
  std::vector<double> reference;
  for (std::uint64_t threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    ml::LogisticRegression lr;
    lr.fit(data);
    if (reference.empty()) {
      reference = lr.weights().raw();
      continue;
    }
    EXPECT_EQ(lr.weights().raw(), reference) << threads << " threads";
  }
}

}  // namespace
}  // namespace xpuf
