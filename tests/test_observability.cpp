// Tests for the observability layer (common/metrics.hpp, common/trace.hpp):
// sharded counter/histogram merge correctness under parallel_for at 1/2/8
// threads, snapshot determinism, span call counts, and the end-to-end
// contract that ServerDatabase counters match AuthenticationOutcome fields.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/mlp.hpp"
#include "puf/authentication.hpp"
#include "puf/database.hpp"
#include "puf/threshold_adjust.hpp"
#include "sim/population.hpp"
#include "sim/tester.hpp"

namespace xpuf {
namespace {

constexpr std::size_t kThreadGrid[] = {1, 2, 8};

TEST(MetricsCounter, ShardsMergeToExactTotalAtAnyThreadCount) {
  auto& registry = MetricsRegistry::global();
  Counter& items = registry.counter("test.items");
  Counter& weighted = registry.counter("test.weighted");
  for (const std::size_t threads : kThreadGrid) {
    ThreadPool::set_global_threads(threads);
    registry.reset();
    parallel_for(10'000, 64, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) {
        items.add(1);
        weighted.add(i % 3);
      }
    });
    EXPECT_EQ(items.total(), 10'000u) << "threads=" << threads;
    // sum of i % 3 over [0, 10000): 3333 full cycles of 0+1+2 plus 10000%3=1
    // leftover item contributing 0.
    EXPECT_EQ(weighted.total(), 9'999u) << "threads=" << threads;
  }
  ThreadPool::set_global_threads(0);
}

TEST(MetricsHistogram, BucketCountsAreThreadCountInvariant) {
  auto& registry = MetricsRegistry::global();
  Histogram& h = registry.histogram("test.hist", {1.0, 3.0, 5.0});
  for (const std::size_t threads : kThreadGrid) {
    ThreadPool::set_global_threads(threads);
    registry.reset();
    parallel_for(7'000, 64, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) h.observe(static_cast<double>(i % 7));
    });
    // i % 7 hits each residue 1000 times. Bucket b counts v <= bound[b]:
    // <=1 gets {0,1}, <=3 gets {2,3}, <=5 gets {4,5}, overflow gets {6}.
    const std::vector<std::uint64_t> expected = {2'000, 2'000, 2'000, 1'000};
    EXPECT_EQ(h.counts(), expected) << "threads=" << threads;
    EXPECT_EQ(h.total(), 7'000u) << "threads=" << threads;
  }
  ThreadPool::set_global_threads(0);
}

TEST(MetricsHistogram, QuantileOfEmptyHistogramIsZero) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(MetricsHistogram, QuantileRejectsOutOfRangeP) {
  Histogram h({1.0});
  EXPECT_THROW(h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(h.quantile(1.1), std::invalid_argument);
}

TEST(MetricsHistogram, SingleBucketQuantileInterpolatesFromZero) {
  // All mass in the first bucket (v <= 10): the p-quantile interpolates
  // linearly across [0, 10], so p=0.5 lands at the bucket midpoint.
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(MetricsHistogram, QuantileInterpolatesWithinTheRankedBucket) {
  // 50 observations <= 10, 50 in (10, 20]: the median sits on the bucket
  // edge and p=0.75 lands halfway through the second bucket's span.
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 50; ++i) h.observe(1.0);
  for (int i = 0; i < 50; ++i) h.observe(15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
}

TEST(MetricsHistogram, OverflowBucketClampsToTheHighestFiniteBound) {
  // Mass beyond the last bound is unresolvable from fixed buckets: the
  // estimate clamps to bounds.back() instead of extrapolating.
  Histogram h({1.0, 2.0});
  for (int i = 0; i < 10; ++i) h.observe(100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(MetricsHistogram, SnapshotQuantileMatchesTheLiveHistogram) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  Histogram& h = registry.histogram("test.quantile_snap", {1.0, 2.0, 4.0, 8.0});
  Rng rng(1234);
  for (int i = 0; i < 500; ++i) h.observe(rng.uniform() * 6.0);
  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSnapshot& hs = snap.histograms.at("test.quantile_snap");
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(histogram_quantile(hs.bounds, hs.counts, p), h.quantile(p))
        << "p=" << p;
  EXPECT_THROW(histogram_quantile({1.0}, {1, 2, 3}, 0.5),
               std::invalid_argument)
      << "counts must be bounds+1";
}

TEST(MetricsHistogram, RejectsUnsortedBoundsAndBoundMismatch) {
  auto& registry = MetricsRegistry::global();
  EXPECT_THROW(Histogram({3.0, 1.0}), std::invalid_argument);
  registry.histogram("test.hist_identity", {1.0, 2.0});
  EXPECT_NO_THROW(registry.histogram("test.hist_identity", {1.0, 2.0}));
  EXPECT_THROW(registry.histogram("test.hist_identity", {1.0, 5.0}),
               std::invalid_argument);
}

TEST(MetricsGauge, LastWriteWinsAndResets) {
  auto& registry = MetricsRegistry::global();
  Gauge& g = registry.gauge("test.gauge");
  g.set(3.0);
  g.set(42.5);
  EXPECT_EQ(g.get(), 42.5);
  g.reset();
  EXPECT_EQ(g.get(), 0.0);
}

TEST(TraceSpans, CallCountsAreDeterministicSecondsNonNegative) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  for (int i = 0; i < 5; ++i) {
    XPUF_TRACE_SPAN("test.span");
  }
  SpanStat& stat = registry.span("test.span");
  EXPECT_EQ(stat.calls(), 5u);
  EXPECT_GE(stat.seconds(), 0.0);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.spans.at("test.span").calls, 5u);
}

TEST(MetricsSnapshot, TimingFreeSerializationIsDeterministic) {
  auto& registry = MetricsRegistry::global();
  auto run_workload = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    registry.reset();
    Counter& c = registry.counter("test.det_counter");
    Histogram& h = registry.histogram("test.det_hist", {10.0, 100.0});
    registry.gauge("test.det_gauge").set(7.0);
    parallel_for(5'000, 64, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) {
        c.add(1);
        h.observe(static_cast<double>(i % 128));
        XPUF_TRACE_SPAN("test.det_span");
      }
    });
    return registry.snapshot().to_json("det", 0, /*include_timing=*/false);
  };
  const std::string serial = run_workload(1);
  const std::string threaded = run_workload(8);
  EXPECT_EQ(serial, threaded)
      << "timing-free snapshot must be a pure function of the workload";
  EXPECT_EQ(serial.find("seconds"), std::string::npos);
  ThreadPool::set_global_threads(0);
}

TEST(MetricsSnapshot, JsonCarriesAllSections) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.counter("test.json_counter").add(3);
  registry.gauge("test.json_gauge").set(1.5);
  registry.histogram("test.json_hist", {2.0}).observe(1.0);
  { XPUF_TRACE_SPAN("test.json_span"); }
  const std::string json =
      registry.snapshot().to_json("unit", 4, /*include_timing=*/true);
  EXPECT_NE(json.find("\"name\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\": [2]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [1, 0]"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_span\": {\"calls\": 1, \"seconds\": "),
            std::string::npos);
}

TEST(MetricsMl, TrainingRecordsIterations) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  ml::Dataset data;
  // Trivially separable 2-feature problem; L-BFGS needs a few iterations.
  for (int i = 0; i < 32; ++i) {
    const double a = (i % 2 == 0) ? 1.0 : -1.0;
    const double features[2] = {a, 0.5 * a};
    data.add(features, a > 0 ? 1.0 : 0.0);
  }
  ml::LogisticRegression lr;
  lr.fit(data);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.counters.at("ml.lbfgs_iterations"), 0u);
  EXPECT_GT(snap.counters.at("ml.objective_evaluations"), 0u);
  EXPECT_EQ(snap.spans.at("ml.lr_fit").calls, 1u);
}

// The end-to-end accounting contract: database counters are the SUM of the
// per-request outcome fields — nothing silently dropped between the
// selector, the ledger, and the registry.
TEST(ObservabilityIntegration, DatabaseCountersMatchOutcomeFields) {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = 3;
  cfg.seed = 5150;
  sim::ChipPopulation pop(cfg);
  Rng rng(808);
  puf::EnrollmentConfig ecfg;
  ecfg.training_challenges = 2'000;
  ecfg.trials = 2'000;
  puf::ServerModel m = puf::Enroller(ecfg).enroll(pop.chip(0), rng);
  m.set_betas(puf::BetaFactors{0.85, 1.15});
  puf::ServerDatabase db(
      puf::DatabaseConfig{.n_pufs = 3, .policy = {.challenge_count = 16}, .screening = {}, .pool = {}});
  db.register_device(std::move(m));

  auto& registry = MetricsRegistry::global();
  registry.reset();
  Rng first_session(777);
  const puf::DatabaseAuthOutcome first =
      db.authenticate(pop.chip(0), sim::Environment::nominal(), first_session);
  Rng replayed_session(777);
  const puf::DatabaseAuthOutcome second =
      db.authenticate(pop.chip(0), sim::Environment::nominal(), replayed_session);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("selection.candidates_tried"),
            first.outcome.candidates_tried + second.outcome.candidates_tried);
  EXPECT_EQ(snap.counters.at("auth.replay_rejected"),
            first.replay_rejected + second.replay_rejected);
  EXPECT_GT(snap.counters.at("auth.replay_rejected"), 0u);
  EXPECT_EQ(snap.counters.at("db.auth_requests"), 2u);
  EXPECT_EQ(snap.counters.at("auth.verifications"), 2u);
  EXPECT_EQ(snap.counters.at("db.challenges_issued"),
            first.outcome.challenges_used + second.outcome.challenges_used);
  EXPECT_EQ(snap.gauges.at("db.ledger_size"), 32.0);
  EXPECT_EQ(snap.counters.at("auth.mismatches"),
            first.outcome.mismatches + second.outcome.mismatches);
  EXPECT_EQ(snap.spans.at("db.authenticate").calls, 2u);
  EXPECT_EQ(snap.spans.at("db.issue_batch").calls, 2u);
  // Pooling is disabled here, so every issue() is a pool miss served by live
  // screening — one screening batch per issue, and the pool/issue identity
  // (pool_hits + pool_misses == issue_requests) holds degenerately.
  EXPECT_EQ(snap.counters.at("db.issue_requests"), 2u);
  EXPECT_EQ(snap.counters.at("auth.pool_misses"), 2u);
  EXPECT_EQ(snap.spans.at("db.issue_batch").calls,
            snap.histograms.at("selection.batch_candidates").total);
}

// Standalone-server accounting: every model-selected issue() registers one
// batch and `challenge_count` accepted challenges, and the verdict counters
// partition the verification count — approved + denied == verifications,
// with each side matching the outcomes the caller observed. The baseline
// issue_random() path must NOT count as a selected batch.
TEST(ObservabilityIntegration, AuthenticationServerCountersPartitionVerdicts) {
  sim::PopulationConfig cfg;
  cfg.n_chips = 2;
  cfg.n_pufs_per_chip = 3;
  cfg.seed = 5150;
  sim::ChipPopulation pop(cfg);
  Rng rng(808);
  puf::EnrollmentConfig ecfg;
  ecfg.training_challenges = 2'000;
  ecfg.trials = 2'000;
  puf::ServerModel m = puf::Enroller(ecfg).enroll(pop.chip(0), rng);
  m.set_betas(puf::BetaFactors{0.85, 1.15});
  constexpr std::size_t kBatchSize = 16;
  const puf::AuthenticationServer server(std::move(m), 3,
                                         {.challenge_count = kBatchSize});

  auto& registry = MetricsRegistry::global();
  registry.reset();
  Rng session(777);
  std::uint64_t approved = 0, denied = 0, selected_rounds = 0;
  const auto tally = [&](const puf::AuthenticationOutcome& out) {
    (out.approved ? approved : denied) += 1;
  };
  // Honest chip, model-selected batches: these should approve.
  for (int round = 0; round < 2; ++round) {
    tally(server.authenticate(pop.chip(0), sim::Environment::nominal(), session));
    ++selected_rounds;
  }
  // An impostor chip answering chip 0's challenges: denied, still verified.
  tally(server.authenticate(pop.chip(1), sim::Environment::nominal(), session));
  ++selected_rounds;
  // Baseline random batch: verified, but no selected batch is accounted.
  tally(server.authenticate(pop.chip(0), sim::Environment::nominal(), session,
                            /*model_selected=*/false));
  EXPECT_GT(approved, 0u);
  EXPECT_GT(denied, 0u);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("auth.batches_issued"), selected_rounds);
  EXPECT_EQ(snap.counters.at("selection.accepted"),
            selected_rounds * kBatchSize);
  EXPECT_EQ(snap.counters.at("auth.approved"), approved);
  EXPECT_EQ(snap.counters.at("auth.denied"), denied);
  EXPECT_EQ(snap.counters.at("auth.approved") + snap.counters.at("auth.denied"),
            snap.counters.at("auth.verifications"));
  EXPECT_EQ(snap.counters.at("auth.verifications"), approved + denied);
}

// A request for a device the database never enrolled is refused AND counted:
// db.unknown_device is the ledger of probes against unprovisioned ids.
TEST(ObservabilityIntegration, UnknownDeviceRequestsAreCounted) {
  sim::PopulationConfig cfg;
  cfg.n_chips = 2;
  cfg.n_pufs_per_chip = 3;
  cfg.seed = 5150;
  sim::ChipPopulation pop(cfg);
  Rng rng(808);
  puf::EnrollmentConfig ecfg;
  ecfg.training_challenges = 2'000;
  ecfg.trials = 2'000;
  puf::ServerModel m = puf::Enroller(ecfg).enroll(pop.chip(0), rng);
  m.set_betas(puf::BetaFactors{0.85, 1.15});
  puf::ServerDatabase db(
      puf::DatabaseConfig{.n_pufs = 3, .policy = {.challenge_count = 16}, .screening = {}, .pool = {}});
  db.register_device(std::move(m));

  auto& registry = MetricsRegistry::global();
  registry.reset();
  Rng session(777);
  const puf::DatabaseAuthOutcome stranger =
      db.authenticate(pop.chip(1), sim::Environment::nominal(), session);
  EXPECT_FALSE(stranger.known_device);
  EXPECT_FALSE(stranger.outcome.approved);
  const puf::DatabaseAuthOutcome known =
      db.authenticate(pop.chip(0), sim::Environment::nominal(), session);
  EXPECT_TRUE(known.known_device);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("db.unknown_device"), 1u);
  EXPECT_EQ(snap.counters.at("db.auth_requests"), 2u);
}

// Workload counters that meter raw work volume: tester.xor_samples equals
// the number of XOR evaluations requested across sample_xor() calls, and
// ml.adam_epochs equals the epochs the Adam options asked for.
TEST(ObservabilityIntegration, TesterAndAdamCountersMatchWorkload) {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = 3;
  cfg.seed = 5150;
  sim::ChipPopulation pop(cfg);

  auto& registry = MetricsRegistry::global();
  registry.reset();
  sim::ChipTester tester(sim::Environment::nominal(), 100, Rng(42));
  const auto first = tester.random_challenges(pop.chip(0), 10);
  const auto second = tester.random_challenges(pop.chip(0), 7);
  (void)tester.sample_xor(pop.chip(0), first);
  (void)tester.sample_xor(pop.chip(0), second);
  EXPECT_EQ(registry.snapshot().counters.at("tester.xor_samples"),
            first.size() + second.size());

  registry.reset();
  ml::Dataset data;
  for (int i = 0; i < 32; ++i) {
    const double a = (i % 2 == 0) ? 1.0 : -1.0;
    const double features[2] = {a, 0.5 * a};
    data.add(features, a > 0 ? 1.0 : 0.0);
  }
  ml::Mlp mlp(2, ml::MlpOptions{.hidden_layers = {4}});
  ml::MlpAdamOptions options;
  options.epochs = 3;
  options.batch_size = 8;
  Rng adam_rng(7);
  mlp.fit_adam(data, options, adam_rng);
  EXPECT_EQ(registry.snapshot().counters.at("ml.adam_epochs"),
            options.epochs);
}

// The concurrent half of the ServerDatabase contract (database.hpp):
// issue/verify/authenticate for DISTINCT pre-registered devices may run in
// parallel, and the registry counters must still equal the summed outcome
// fields — at 1, 2, and 8 threads, with bit-identical totals. Run with
// pooling off (live screening) and on (target 32: concurrent drains and
// refills cross the store's shard, cache and pool mutexes).
TEST(ObservabilityIntegration, ConcurrentDatabaseUseKeepsCountersExact) {
  constexpr std::size_t kDevices = 4;
  constexpr std::size_t kRequests = 3;
  sim::PopulationConfig cfg;
  cfg.n_chips = kDevices;
  cfg.n_pufs_per_chip = 3;
  cfg.seed = 5150;
  sim::ChipPopulation pop(cfg);
  puf::EnrollmentConfig ecfg;
  ecfg.training_challenges = 2'000;
  ecfg.trials = 2'000;
  const puf::Enroller enroller(ecfg);

  auto& registry = MetricsRegistry::global();
  for (const std::size_t pool_target : {std::size_t{0}, std::size_t{32}}) {
    std::uint64_t previous_issued = 0;
    for (const std::size_t threads : kThreadGrid) {
      ThreadPool::set_global_threads(threads);
      puf::ServerDatabase db(puf::DatabaseConfig{.n_pufs = 3,
                                                 .policy = {.challenge_count = 16},
                                                 .screening = {},
                                                 .pool = {.target = pool_target}});
      // register/revoke need exclusive access: enroll + register serially...
      Rng enroll_rng(808);
      for (std::size_t i = 0; i < kDevices; ++i) {
        puf::ServerModel m = enroller.enroll(pop.chip(i), enroll_rng);
        m.set_betas(puf::BetaFactors{0.85, 1.15});
        db.register_device(std::move(m));
      }
      registry.reset();
      // ...then authenticate all devices concurrently, one device per chunk,
      // each on its own stream so the workload is thread-count invariant.
      const StreamFamily sessions(Rng(777).fork_base());
      std::vector<puf::DatabaseAuthOutcome> outcomes(kDevices * kRequests);
      parallel_for(kDevices, 1,
                   [&](std::size_t begin, std::size_t end, std::size_t) {
                     for (std::size_t i = begin; i < end; ++i) {
                       Rng rng = sessions.stream(i);
                       for (std::size_t r = 0; r < kRequests; ++r)
                         outcomes[i * kRequests + r] = db.authenticate(
                             pop.chip(i), sim::Environment::nominal(), rng);
                     }
                   });
      std::uint64_t tried = 0, replays = 0, issued = 0, mismatches = 0;
      for (const auto& out : outcomes) {
        EXPECT_TRUE(out.known_device);
        tried += out.outcome.candidates_tried;
        replays += out.replay_rejected;
        issued += out.outcome.challenges_used;
        mismatches += out.outcome.mismatches;
      }
      const MetricsSnapshot snap = registry.snapshot();
      EXPECT_EQ(snap.counters.at("selection.candidates_tried"), tried)
          << "pool=" << pool_target << " threads=" << threads;
      EXPECT_EQ(snap.counters.at("auth.replay_rejected"), replays)
          << "pool=" << pool_target << " threads=" << threads;
      EXPECT_EQ(snap.counters.at("db.challenges_issued"), issued)
          << "pool=" << pool_target << " threads=" << threads;
      EXPECT_EQ(snap.counters.at("auth.mismatches"), mismatches)
          << "pool=" << pool_target << " threads=" << threads;
      EXPECT_EQ(snap.counters.at("db.auth_requests"), kDevices * kRequests)
          << "pool=" << pool_target << " threads=" << threads;
      EXPECT_EQ(issued, kDevices * kRequests * 16u)
          << "pool=" << pool_target << " threads=" << threads;
      // Bit-identical across the thread grid: stream-keyed sessions make the
      // summed totals a pure function of the workload.
      if (previous_issued == 0)
        previous_issued = tried + mismatches;
      else
        EXPECT_EQ(previous_issued, tried + mismatches)
            << "pool=" << pool_target << " threads=" << threads;
      for (std::size_t i = 0; i < kDevices; ++i)
        EXPECT_EQ(db.issued_count(i), kRequests * 16u)
            << "pool=" << pool_target << " device " << i;
    }
  }
  ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace xpuf
