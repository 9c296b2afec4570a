// Golden equivalence tests for the batched linear-view evaluation core
// (sim/linear.hpp): suffix-parity words must carry exactly phi's signs, the
// parity tiles and parity_dots must be bit-identical to scalar linear-view
// evaluation across every paper corner, aged devices, and 1/2/8 threads —
// and the tester/selector batch paths must reproduce their per-cell
// oracles (tests/oracle/) byte for byte.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/vector.hpp"
#include "oracle/oracle.hpp"
#include "puf/enrollment.hpp"
#include "puf/selection.hpp"
#include "puf/transform.hpp"
#include "sim/linear.hpp"
#include "sim/population.hpp"
#include "sim/tester.hpp"

namespace xpuf {
namespace {

sim::ChipPopulation test_population(std::size_t n_pufs, std::size_t stages = 32) {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = n_pufs;
  cfg.device.stages = stages;
  cfg.seed = 2017;
  return sim::ChipPopulation(cfg);
}

std::vector<sim::Challenge> fixed_challenges(std::size_t stages, std::size_t count,
                                             std::uint64_t seed = 4242) {
  Rng rng(seed);
  return sim::random_challenges(stages, count, rng);
}

/// Runs `f` at 1, 2, and 8 global threads and checks the results agree.
template <typename F>
void expect_identical_across_thread_counts(const F& f) {
  ThreadPool::set_global_threads(1);
  const auto reference = f();
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_EQ(f(), reference) << "result changed at " << threads << " threads";
  }
  ThreadPool::set_global_threads(8);
}

TEST(FeatureFill, ParitySignsEqualTheSuffixProductChainByteForByte) {
  for (const std::size_t stages : {1u, 7u, 32u, 64u, 65u}) {
    for (const auto& c : fixed_challenges(stages, 50, 17 + stages)) {
      std::vector<double> got(stages + 1);
      sim::feature_fill(c, got.data());
      // The multiply-and-branch chain feature_fill replaced.
      std::vector<double> want(stages + 1);
      double acc = 1.0;
      want[stages] = 1.0;
      for (std::size_t ii = stages; ii > 0; --ii) {
        acc = acc * (c[ii - 1] ? -1.0 : 1.0);
        want[ii - 1] = acc;
      }
      ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0)
          << "stages " << stages;
    }
  }
}

/// The challenge a packed row stands for: stage i is bit i % 64 of word
/// i / 64, least-significant bit first.
sim::Challenge unpack(const std::uint64_t* words, std::size_t stages) {
  sim::Challenge c(stages);
  for (std::size_t i = 0; i < stages; ++i)
    c[i] = static_cast<std::uint8_t>((words[i / 64] >> (i % 64)) & 1U);
  return c;
}

/// Bit patterns of `n` doubles, so NaN payloads and signed zeros compare
/// exactly.
bool same_bits(const double* a, const double* b, std::size_t n = 1) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Random packed rows for `stages`-bit challenges — set bits above `stages`
/// included whenever stages % 64 != 0 — then an all-zero and an all-one row.
std::vector<std::uint64_t> packed_rows(std::size_t stages, std::size_t rows, Rng& rng) {
  const std::size_t n_words = sim::packed_words(stages);
  std::vector<std::uint64_t> words(rows * n_words);
  for (auto& w : words) w = rng.next_u64();
  for (std::size_t w = 0; w < n_words; ++w) {
    words[(rows - 2) * n_words + w] = 0;
    words[(rows - 1) * n_words + w] = ~0ULL;
  }
  return words;
}

TEST(ParityDots, SuffixParityWordsCarryExactlyThePhiSigns) {
  Rng rng(0x9ac4ed);
  for (std::size_t stages = 1; stages <= 129; ++stages) {
    const std::size_t n_words = sim::packed_words(stages);
    const std::size_t rows = 12;
    const std::vector<std::uint64_t> words = packed_rows(stages, rows, rng);
    std::vector<std::uint64_t> parity(words.size());
    sim::suffix_parity_words(words, stages, parity);
    std::vector<double> phi(stages + 1);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint64_t* p = parity.data() + r * n_words;
      sim::feature_fill(unpack(words.data() + r * n_words, stages), phi.data());
      for (std::size_t i = 0; i < stages; ++i) {
        const double want = sim::parity_sign(p[i / 64] >> (i % 64));
        ASSERT_TRUE(same_bits(&phi[i], &want)) << "stages " << stages << " row " << r;
      }
      // Bits above `stages` come out zero.
      if (stages % 64 != 0) {
        EXPECT_EQ(p[n_words - 1] >> (stages % 64), 0u);
      }
    }
    // Garbage above `stages` never reaches the parity words.
    if (stages % 64 != 0) {
      std::vector<std::uint64_t> dirty = words;
      for (std::size_t r = 0; r < rows; ++r)
        dirty[r * n_words + n_words - 1] ^= ~0ULL << (stages % 64);
      std::vector<std::uint64_t> dirty_parity(dirty.size());
      sim::suffix_parity_words(dirty, stages, dirty_parity);
      EXPECT_EQ(dirty_parity, parity) << "stages " << stages;
    }
  }
}

TEST(ParityDots, EqualFeatureFillPlusDotBitForBit) {
  Rng rng(0x5d07);
  const double sentinel = -12345.678;
  for (std::size_t stages = 1; stages <= 129; ++stages) {
    const std::size_t n_words = sim::packed_words(stages);
    const std::size_t rows = 21;
    const std::vector<std::uint64_t> words = packed_rows(stages, rows, rng);
    std::vector<std::uint64_t> parity(words.size());
    sim::suffix_parity_words(words, stages, parity);
    std::vector<double> w(stages + 1);
    for (auto& x : w) x = rng.normal(0.0, 1.0);
    std::vector<double> phi(stages + 1);
    std::vector<double> ref(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      sim::feature_fill(unpack(words.data() + r * n_words, stages), phi.data());
      ref[r] = linalg::dot(w, phi);
    }
    // 0..17 survivors reach the empty list, every padded remainder of the
    // one-to-four-vector pass, and the full 16-row pass plus a remainder.
    // The row lists skip and revisit rows, in no particular order.
    for (std::size_t m = 0; m <= 17; ++m) {
      std::vector<std::size_t> sel(m);
      for (std::size_t k = 0; k < m; ++k) sel[k] = (k * 7 + stages) % rows;
      std::vector<double> out(m + 1, sentinel);
      sim::parity_dots(w, parity, sel, std::span<double>(out.data(), m));
      for (std::size_t k = 0; k < m; ++k) {
        ASSERT_TRUE(same_bits(&out[k], &ref[sel[k]]))
            << "stages " << stages << " m " << m << " k " << k << ": " << out[k]
            << " vs " << ref[sel[k]];
      }
      EXPECT_TRUE(same_bits(&out[m], &sentinel)) << "stages " << stages << " m " << m;
    }
  }
}

TEST(ParityDots, SignedZerosInfinitiesAndNanWeights) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(0x2e70);
  for (const std::size_t stages : {1u, 5u, 32u, 64u, 65u}) {
    const std::size_t n_words = sim::packed_words(stages);
    const std::size_t rows = 19;
    const std::vector<std::uint64_t> words = packed_rows(stages, rows, rng);
    std::vector<std::uint64_t> parity(words.size());
    sim::suffix_parity_words(words, stages, parity);
    std::vector<std::size_t> all(rows);
    for (std::size_t r = 0; r < rows; ++r) all[r] = r;
    // Weight rows: all +0, all -0, mixed signed zeros with a one-sided
    // infinity, opposing infinities (NaN sums), and a NaN weight.
    std::vector<std::vector<double>> cases;
    cases.emplace_back(stages + 1, 0.0);
    cases.emplace_back(stages + 1, -0.0);
    std::vector<double> mixed(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i) mixed[i] = i % 2 ? -0.0 : 0.0;
    mixed[stages / 2] = inf;
    cases.push_back(mixed);
    std::vector<double> opposed(stages + 1, 1.5);
    opposed[0] = inf;
    opposed[stages] = -inf;
    cases.push_back(opposed);
    std::vector<double> with_nan(stages + 1, -2.25);
    with_nan[stages / 2] = nan;
    cases.push_back(with_nan);
    std::vector<double> phi(stages + 1);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const std::vector<double>& w = cases[c];
      std::vector<double> out(rows);
      sim::parity_dots(w, parity, all, out);
      for (std::size_t r = 0; r < rows; ++r) {
        sim::feature_fill(unpack(words.data() + r * n_words, stages), phi.data());
        const double ref = linalg::dot(w, phi);
        SCOPED_TRACE("stages " + std::to_string(stages) + " case " + std::to_string(c) +
                     " row " + std::to_string(r));
        // A NaN comes out NaN either way (its sign may differ); everything
        // else matches bit for bit, the sign of a zero sum included.
        if (std::isnan(ref)) {
          EXPECT_TRUE(std::isnan(out[r]));
        } else {
          EXPECT_TRUE(same_bits(&out[r], &ref)) << out[r] << " vs " << ref;
        }
      }
    }
  }
}

TEST(ParityDots, RejectMisshapedInputs) {
  const std::vector<std::uint64_t> words = {1, 2, 3, 4};  // two rows at 65..128 stages
  std::vector<std::uint64_t> parity(4);
  EXPECT_THROW(sim::suffix_parity_words(words, 0, parity), std::invalid_argument);
  EXPECT_THROW(sim::suffix_parity_words(words, 300, parity), std::invalid_argument);
  std::vector<std::uint64_t> short_out(3);
  EXPECT_THROW(sim::suffix_parity_words(words, 70, short_out), std::invalid_argument);
  sim::suffix_parity_words(words, 70, parity);

  const std::vector<double> w(71, 1.0);
  const std::vector<std::size_t> rows = {1, 0};
  std::vector<double> out(2);
  sim::parity_dots(w, parity, rows, out);
  EXPECT_THROW(sim::parity_dots(std::vector<double>{1.0}, parity, rows, out),
               std::invalid_argument);
  EXPECT_THROW(sim::parity_dots(std::vector<double>(300, 1.0), parity, rows, out),
               std::invalid_argument);
  EXPECT_THROW(sim::parity_dots(w, parity, std::vector<std::size_t>{0, 2}, out),
               std::invalid_argument);
  EXPECT_THROW(sim::parity_dots(w, parity, rows, std::span<double>(out.data(), 1)),
               std::invalid_argument);
}

TEST(DeviceLinearView, DelayIsTheAscendingDotOfReducedWeights) {
  sim::ChipPopulation pop = test_population(2);
  const sim::ArbiterPufDevice& dev = pop.chip(0).device_for_analysis(0);
  for (const auto& env : sim::paper_corner_grid()) {
    const sim::DeviceLinearView view = dev.linear_view(env);
    const linalg::Vector w = dev.reduced_weights(env);
    ASSERT_EQ(view.features(), w.size());
    EXPECT_EQ(view.noise_sigma, dev.noise_sigma(env));
    std::vector<double> phi(w.size());
    for (const sim::Challenge& c : fixed_challenges(dev.stages(), 30)) {
      sim::feature_fill(c, phi.data());
      // The reference accumulation order: ascending index.
      double ref = 0.0;
      for (std::size_t j = 0; j < w.size(); ++j) ref += w[j] * phi[j];
      EXPECT_EQ(view.delay(phi), ref);
      EXPECT_EQ(view.one_probability(phi), normal_cdf(view.delay(phi) / view.noise_sigma));
      // And the recursive stage walk agrees to reduction rounding.
      EXPECT_NEAR(view.delay(phi), dev.delay_difference(c, env), 1e-9);
    }
  }
}

TEST(DeviceLinearView, BatchEntryPointsMatchScalarBitwise) {
  sim::ChipPopulation pop = test_population(1);
  sim::XorPufChip& chip = pop.chip(0);
  const auto challenges = fixed_challenges(chip.stages(), 129);
  const std::size_t n = challenges.size();
  const std::vector<std::uint64_t> parity = sim::challenge_parity(challenges, chip.stages());
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  std::vector<double> phi(chip.stages() + 1);
  for (const bool aged : {false, true}) {
    if (aged) chip.age(5'000.0);
    const sim::ArbiterPufDevice& dev = chip.device_for_analysis(0);
    for (const auto& env : sim::paper_corner_grid()) {
      const sim::DeviceLinearView view = dev.linear_view(env);
      // A device's batch routes: a one-device chip view's tiles, and
      // parity_dots over its weight row.
      const sim::ChipLinearView one({view});
      std::vector<double> deltas(n), probs(n), dots(n);
      one.delay_differences_into(parity, 0, n, deltas.data());
      one.one_probabilities_into(parity, 0, n, probs.data());
      sim::parity_dots(view.weights.span(), parity, all, dots);
      for (std::size_t i = 0; i < n; ++i) {
        sim::feature_fill(challenges[i], phi.data());
        EXPECT_EQ(deltas[i], view.delay(phi));
        EXPECT_EQ(dots[i], deltas[i]);
        EXPECT_EQ(probs[i], view.one_probability(phi));
      }
      // Uneven tile boundaries must not change a single bit.
      std::vector<double> part(57);
      one.one_probabilities_into(parity, 31, 88, part.data());
      for (std::size_t i = 0; i < part.size(); ++i) EXPECT_EQ(part[i], probs[31 + i]);
    }
  }
}

TEST(ChipLinearView, GemmTilesAndScalarAgreeAcrossCornersAgingThreads) {
  sim::ChipPopulation pop = test_population(5);
  sim::XorPufChip& chip = pop.chip(0);
  const auto challenges = fixed_challenges(chip.stages(), 200);
  const std::vector<std::uint64_t> parity = sim::challenge_parity(challenges, chip.stages());
  std::vector<double> phi(chip.stages() + 1);
  for (const bool aged : {false, true}) {
    if (aged) chip.age(2'000.0);
    for (const auto& env : sim::paper_corner_grid()) {
      const sim::ChipLinearView view = chip.linear_view(env);
      const std::size_t n = view.puf_count();
      ASSERT_EQ(n, 5u);
      // The chip's batch probabilities run under parallel_for: sweep thread
      // counts.
      expect_identical_across_thread_counts(
          [&] { return chip.one_probabilities(challenges, env).raw(); });
      const linalg::Matrix probs = chip.one_probabilities(challenges, env);
      // Tile kernels over an uneven row range, against the full batch and
      // each cell's per-device scalar linear view.
      std::vector<double> tile(77 * n);
      view.delay_differences_into(parity, 3, 80, tile.data());
      std::vector<double> ptile(77 * n);
      view.one_probabilities_into(parity, 3, 80, ptile.data());
      for (std::size_t p = 0; p < n; ++p) {
        const sim::DeviceLinearView dview = chip.device_for_analysis(p).linear_view(env);
        for (std::size_t c = 3; c < 80; ++c) {
          sim::feature_fill(challenges[c], phi.data());
          EXPECT_EQ(tile[(c - 3) * n + p], dview.delay(phi));
          EXPECT_EQ(ptile[(c - 3) * n + p], probs(c, p));
        }
        for (std::size_t c = 0; c < challenges.size(); c += 17) {
          sim::feature_fill(challenges[c], phi.data());
          EXPECT_EQ(probs(c, p), dview.one_probability(phi));
        }
      }
    }
  }
}

TEST(ChipLinearView, ParityTilesMatchScalarDotsBitForBit) {
  Rng rng(0x7a11);
  for (const std::size_t stages : {1u, 31u, 32u, 63u, 64u, 65u, 128u, 129u}) {
    const std::size_t n_words = sim::packed_words(stages);
    const std::size_t rows = 23;
    const std::vector<std::uint64_t> words = packed_rows(stages, rows, rng);
    std::vector<std::uint64_t> parity(words.size());
    sim::suffix_parity_words(words, stages, parity);
    std::vector<std::vector<double>> phi(rows, std::vector<double>(stages + 1));
    for (std::size_t r = 0; r < rows; ++r)
      sim::feature_fill(unpack(words.data() + r * n_words, stages), phi[r].data());
    // Every AVX2 lane-group width (1..12 PUFs, with padding lanes) and the
    // portable fallback past it (13).
    for (const std::size_t n_pufs : {1u, 2u, 3u, 4u, 5u, 8u, 10u, 12u, 13u}) {
      std::vector<sim::DeviceLinearView> devices(n_pufs);
      for (auto& d : devices) {
        d.weights = linalg::Vector(stages + 1);
        for (std::size_t i = 0; i <= stages; ++i) d.weights[i] = rng.normal(0.0, 1.0);
        d.noise_sigma = rng.uniform(0.1, 2.0);
      }
      devices[0].weights[0] = 0.0;  // a signed-zero term: +0 * -1 == -0
      const sim::ChipLinearView view(devices);
      // Full range, the 4-row and 2-row blocks plus a remainder, and empty.
      for (const auto& [begin, end] : {std::pair<std::size_t, std::size_t>{0, rows},
                                       {3, 20}, {5, 6}, {7, 7}}) {
        const std::size_t m = (end - begin) * n_pufs;
        // The reference: each device's scalar ascending dot, then / sigma.
        std::vector<double> want(m), want_z(m);
        for (std::size_t r = begin; r < end; ++r)
          for (std::size_t p = 0; p < n_pufs; ++p) {
            want[(r - begin) * n_pufs + p] = devices[p].delay(phi[r]);
            want_z[(r - begin) * n_pufs + p] = devices[p].delay(phi[r]) / devices[p].noise_sigma;
          }
        std::vector<double> got(m + 1, -2.0);
        view.delay_differences_into(parity, begin, end, got.data());
        ASSERT_TRUE(same_bits(got.data(), want.data(), m))
            << "delays: stages " << stages << " pufs " << n_pufs << " rows " << begin << ".."
            << end;
        EXPECT_EQ(got[m], -2.0) << "wrote past the tile";
        view.standardized_delays_into(parity, begin, end, got.data());
        ASSERT_TRUE(same_bits(got.data(), want_z.data(), m))
            << "standardized delays: stages " << stages << " pufs " << n_pufs << " rows "
            << begin << ".." << end;
      }
      double out[64];
      const std::span<const std::uint64_t> all(parity);
      EXPECT_THROW(view.delay_differences_into(all, 0, rows + 1, out), std::invalid_argument);
      EXPECT_THROW(view.delay_differences_into(all, 2, 1, out), std::invalid_argument);
      if (n_words > 1) {
        EXPECT_THROW(view.standardized_delays_into(all.first(n_words + 1), 0, 1, out),
                     std::invalid_argument);
      }
    }
  }
  const sim::ChipLinearView empty;
  const std::uint64_t word = 0;
  double out = 0.0;
  EXPECT_THROW(empty.delay_differences_into(std::span<const std::uint64_t>(&word, 1), 0, 1, &out),
               std::invalid_argument);
}

TEST(ChipLinearView, ChallengeParityPacksThenTakesSuffixParity) {
  Rng rng(0xc4a1);
  for (const std::size_t stages : {1u, 63u, 64u, 65u, 129u}) {
    const auto challenges = sim::random_challenges(stages, 9, rng);
    const std::size_t n_words = sim::packed_words(stages);
    std::vector<std::uint64_t> words(challenges.size() * n_words);
    for (std::size_t r = 0; r < challenges.size(); ++r)
      sim::pack_challenge_into(challenges[r], {words.data() + r * n_words, n_words});
    std::vector<std::uint64_t> want(words.size());
    sim::suffix_parity_words(words, stages, want);
    EXPECT_EQ(sim::challenge_parity(challenges, stages), want) << "stages " << stages;
  }
  EXPECT_TRUE(sim::challenge_parity({}, 32).empty());
  EXPECT_THROW(sim::challenge_parity({sim::Challenge(31, 0)}, 32), std::invalid_argument);
  EXPECT_THROW(sim::challenge_parity({}, 0), std::invalid_argument);
}

/// The individual scan's outputs, as comparable value types.
struct ScanOutputs {
  std::vector<std::vector<double>> soft;
  std::vector<std::vector<bool>> stable;

  bool operator==(const ScanOutputs&) const = default;
};

/// The individual scan of the production tester or of its per-cell oracle,
/// from identically seeded generators.
template <class Tester>
ScanOutputs run_scans(const sim::Environment& env) {
  sim::ChipPopulation pop = test_population(4);
  Rng rng(9001);
  Tester tester(env, 150, rng.fork());
  const auto challenges = tester.random_challenges(pop.chip(0), 260);
  ScanOutputs out;
  const sim::ChipSoftScan scan = tester.scan_individual(pop.chip(0), challenges);
  out.soft = scan.soft;
  out.stable = scan.stable;
  return out;
}

TEST(ScanModes, BatchedMatchesScalarByteForByteAcrossCornersAndThreads) {
  for (const auto& env : sim::paper_corner_grid()) {
    const ScanOutputs scalar = run_scans<oracle::ScalarTester>(env);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool::set_global_threads(threads);
      EXPECT_EQ(run_scans<sim::ChipTester>(env), scalar)
          << "corner v=" << env.voltage << " t=" << env.temperature
          << " threads=" << threads;
    }
  }
  ThreadPool::set_global_threads(8);
}

TEST(ScanModes, MeasurementCounterTotalsAgree) {
  static Counter& measurements =
      MetricsRegistry::global().counter("tester.measurements");
  const std::uint64_t before = measurements.total();
  run_scans<sim::ChipTester>(sim::Environment::nominal());
  EXPECT_EQ(measurements.total() - before, 260u * 4u);  // one per (challenge, PUF) cell
}

/// Enrolls a small server model for the selector tests.
puf::ServerModel small_server_model(sim::XorPufChip& chip) {
  puf::EnrollmentConfig cfg;
  cfg.training_challenges = 400;
  cfg.trials = 200;
  puf::Enroller enroller(cfg);
  Rng rng(33);
  return enroller.enroll(chip, rng);
}

TEST(ModelSelection, BlockSelectMatchesSerialReference) {
  sim::ChipPopulation pop = test_population(3);
  const puf::ServerModel model = small_server_model(pop.chip(0));
  const std::size_t n_pufs = 3;
  const puf::ModelBasedSelector selector(model, n_pufs);

  for (const std::size_t max_attempts : {100'000ul, 700ul, 3ul}) {
    Rng batch_rng(2024);
    const puf::SelectionResult batched = selector.select(64, batch_rng, max_attempts);

    // Serial reference: one candidate at a time, scalar predictions. The
    // candidate stream is identical because candidate i is a pure function
    // of (family, i) — the selector consumes exactly one fork_base() draw
    // and walks the same index-keyed streams this loop does.
    Rng serial_rng(2024);
    const StreamFamily family(serial_rng.fork_base());
    puf::SelectionResult serial;
    std::vector<puf::ThresholdPair> thresholds;
    for (std::size_t p = 0; p < n_pufs; ++p)
      thresholds.push_back(model.adjusted_thresholds(p));
    while (serial.challenges.size() < 64 && serial.candidates_tried < max_attempts) {
      Rng candidate_rng = family.stream(serial.candidates_tried);
      std::vector<std::uint64_t> row(sim::packed_words(model.stages()));
      puf::ChallengeScreener::candidate_into(row, model.stages(), candidate_rng);
      sim::Challenge c;
      sim::unpack_challenge_into(row, model.stages(), c);
      ++serial.candidates_tried;
      bool stable = true;
      bool bit = false;
      for (std::size_t p = 0; p < n_pufs; ++p) {
        const double raw = model.puf(p).model.predict_raw(c);
        if (thresholds[p].classify(raw) == puf::StableClass::kUnstable) stable = false;
        bit ^= raw > 0.5;
      }
      if (!stable) continue;
      serial.challenges.push_back(std::move(c));
      serial.expected_responses.push_back(bit);
    }
    serial.filled = serial.challenges.size() >= 64;

    EXPECT_EQ(batched.challenges, serial.challenges) << "cap " << max_attempts;
    EXPECT_EQ(batched.expected_responses, serial.expected_responses);
    EXPECT_EQ(batched.candidates_tried, serial.candidates_tried);
    EXPECT_EQ(batched.filled, serial.filled);
  }
}

TEST(ServerModelBatch, StableAndXorBatchesMatchScalarPredicates) {
  sim::ChipPopulation pop = test_population(3);
  const puf::ServerModel model = small_server_model(pop.chip(0));
  const auto challenges = fixed_challenges(model.stages(), 220);
  const linalg::Matrix raw = model.predict_raw_batch(challenges, 3);
  ASSERT_EQ(raw.rows(), challenges.size());
  ASSERT_EQ(raw.cols(), 3u);
  std::vector<puf::ThresholdPair> thresholds;
  for (std::size_t p = 0; p < 3; ++p) thresholds.push_back(model.adjusted_thresholds(p));
  for (std::size_t i = 0; i < challenges.size(); ++i) {
    bool stable = true;
    bool bit = false;
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_EQ(raw(i, p), model.puf(p).model.predict_raw(challenges[i]));
      stable = stable && thresholds[p].classify(raw(i, p)) != puf::StableClass::kUnstable;
      bit ^= raw(i, p) > 0.5;
    }
    EXPECT_EQ(stable, model.all_stable(challenges[i], 3));
    EXPECT_EQ(bit, model.predict_xor(challenges[i], 3));
  }
  EXPECT_EQ(model.predict_raw_batch({}, 2).rows(), 0u);
  EXPECT_THROW(model.predict_raw_batch(challenges, 4), std::invalid_argument);
}

TEST(TapGating, LinearViewsRespectFusesButXorBatchesSurvive) {
  sim::ChipPopulation pop = test_population(3);
  sim::XorPufChip& chip = pop.chip(0);
  const sim::Environment env = sim::Environment::nominal();
  const auto challenges = fixed_challenges(chip.stages(), 50);

  // Pre-deployment: everything works.
  EXPECT_NO_THROW(chip.linear_view(env));
  EXPECT_NO_THROW(chip.one_probabilities(challenges, env));

  chip.blow_fuses();
  EXPECT_THROW(chip.linear_view(env), AccessError);
  EXPECT_THROW(chip.one_probabilities(challenges, env), AccessError);

  // The per-tap scan throws, and so does the per-cell oracle; the XOR pin
  // remains usable, batched and counter-based.
  Rng rng(5);
  sim::ChipTester tester(env, 50, rng.fork());
  EXPECT_THROW(tester.scan_individual(chip, challenges), AccessError);
  oracle::ScalarTester scalar(env, 50, rng.fork());
  EXPECT_THROW(scalar.scan_individual(chip, challenges), AccessError);
  const std::size_t stride = sim::packed_words(chip.stages());
  std::vector<std::uint64_t> rows(challenges.size() * stride);
  for (std::size_t c = 0; c < challenges.size(); ++c)
    sim::random_packed_challenge_into(std::span(rows).subspan(c * stride, stride),
                                      chip.stages(), rng);
  std::vector<std::uint8_t> bits;
  chip.xor_responses(rows, chip.stages(), env, rng, bits);
  EXPECT_EQ(bits.size(), challenges.size());
  EXPECT_EQ(chip.measure_xor_soft_response(challenges[0], env, 50, rng).trials, 50u);
}

TEST(NormalCdfBatchIntegration, ChipProbabilitiesUseTheExactScalarCdf) {
  // End-to-end pin: the chip batch path must produce exactly
  // normal_cdf(delta / sigma) per cell — the division (never a reciprocal
  // multiply) and the shared erfc expression are the load-bearing details.
  sim::ChipPopulation pop = test_population(2);
  const sim::XorPufChip& chip = pop.chip(0);
  const sim::Environment env{0.8, 60.0};
  const auto challenges = fixed_challenges(chip.stages(), 64);
  const std::vector<std::uint64_t> parity = sim::challenge_parity(challenges, chip.stages());
  const sim::ChipLinearView view = chip.linear_view(env);
  const std::size_t n = view.puf_count();
  std::vector<double> deltas(challenges.size() * n);
  view.delay_differences_into(parity, 0, challenges.size(), deltas.data());
  const linalg::Matrix probs = chip.one_probabilities(challenges, env);
  for (std::size_t c = 0; c < challenges.size(); ++c)
    for (std::size_t p = 0; p < n; ++p)
      EXPECT_EQ(probs(c, p), normal_cdf(deltas[c * n + p] / view.noise_sigma(p)));
}

}  // namespace
}  // namespace xpuf
