// auth_store: server-side authentication on the durable store, no sockets.
// Each round builds a store-backed fleet of paper-calibrated synthetic
// 10-PUF models with issuance pools, compacts and reopens it (set-up), then
// serves scattered passes of issue + verify requests, each timed from
// outside, with the model cache holding 1 % of the fleet. Compaction and
// recovery (reopen, median of three) are timed after the traffic.
//
// With pool 96 / low-water 8 and 16 challenges per request, a device's
// sixth request drains its pool and refills it on the request path, so the
// p50 is a pool drain plus the ISSUE append and the p99 is a refill
// (screening).
#include "workloads.hpp"

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "puf/database.hpp"
#include "trace.hpp"

namespace xpuf::bench_e2e {

namespace {

constexpr std::size_t kFleet = 500;
constexpr std::size_t kPasses = 8;
constexpr std::size_t kPufs = 10;
constexpr std::size_t kStages = 64;
constexpr std::uint32_t kShards = 16;
constexpr std::size_t kPoolTarget = 96;
constexpr std::size_t kPoolLowWater = 8;
constexpr std::size_t kChallengeCount = 16;
constexpr std::size_t kReopens = 3;

/// bench_auth_throughput's synthetic enrollment: weights drawn per device,
/// thresholds sized so each PUF's predicted-stable fraction is ~0.800
/// (Fig. 3), i.e. XOR acceptance ~0.800^10 ~ 10.7 %.
puf::ServerModel make_device(std::uint64_t id, std::uint64_t seed) {
  Rng rng(seed + 0x5eed0000u + id);
  std::vector<puf::PufEnrollment> pufs;
  pufs.reserve(kPufs);
  for (std::size_t p = 0; p < kPufs; ++p) {
    puf::PufEnrollment e;
    linalg::Vector w(kStages + 1);
    double sum_sq = 0.0;
    for (std::size_t i = 0; i <= kStages; ++i) {
      w[i] = rng.uniform(-2.0, 2.0);
      sum_sq += w[i] * w[i];
    }
    const double thr = 0.2533 * std::sqrt(sum_sq);
    e.model = puf::ArbiterPufModel(std::move(w));
    e.thresholds.thr0 = -thr;
    e.thresholds.thr1 = thr;
    e.train_r_squared = 0.99;
    pufs.push_back(std::move(e));
  }
  return puf::ServerModel(static_cast<std::size_t>(id), std::move(pufs));
}

/// Multiplicative stride over [0, n): every id once per period, in an order
/// that defeats the LRU cache and readahead.
std::uint64_t scatter(std::uint64_t i, std::uint64_t n) { return (i * 2654435761ull) % n; }

std::uint64_t store_bytes(const puf::ServerDatabase& db) {
  std::uint64_t bytes = 0;
  for (std::uint32_t k = 0; k < db.store().n_shards(); ++k) bytes += db.store().shard_size(k);
  return bytes;
}

enum SpanId : std::size_t { kRound, kRequest, kIssue, kVerify };

}  // namespace

Result run_auth_store(const Options& options) {
  namespace fs = std::filesystem;
  Result result;
  const std::size_t fleet = options.size(kFleet, 100);
  const std::size_t requests = fleet * kPasses;

  puf::DatabaseConfig db_cfg;
  db_cfg.n_pufs = kPufs;
  db_cfg.policy.challenge_count = kChallengeCount;
  db_cfg.pool.target = kPoolTarget;
  db_cfg.pool.low_water = kPoolLowWater;
  db_cfg.pool.seed ^= options.seed;
  puf::store::StoreOptions store_opts;
  store_opts.n_shards = kShards;
  store_opts.cache_capacity = std::max<std::size_t>(1, fleet / 100);
  const StreamFamily request_family(Rng(options.seed ^ 0xa57e0000ull).fork_base());
  const std::uint64_t model_seed = options.seed << 32;
  const std::string dir = options.work_dir + "/auth_store";

  result.sizes["devices"] = static_cast<double>(fleet);
  result.sizes["cache_models"] = static_cast<double>(store_opts.cache_capacity);
  result.sizes["passes"] = static_cast<double>(kPasses);
  result.sizes["requests_per_round"] = static_cast<double>(requests);
  result.sizes["pufs"] = static_cast<double>(kPufs);
  result.sizes["stages"] = static_cast<double>(kStages);
  result.sizes["shards"] = static_cast<double>(kShards);
  result.sizes["challenges_per_auth"] = static_cast<double>(kChallengeCount);
  result.sizes["pool_target"] = static_cast<double>(kPoolTarget);
  result.sizes["pool_low_water"] = static_cast<double>(kPoolLowWater);

  std::unique_ptr<TraceRecorder> recorder;
  if (options.traced()) recorder = std::make_unique<TraceRecorder>();
  const SpanNames ids(recorder.get(), {"auth_store.round", "request", "puf.db.issue",
                                       "puf.db.verify"});
  const std::size_t kinds = recorder ? 2 : 1;
  RegistryDelta traced_delta;
  std::vector<double> setup_s, rate, rate_traced, compact_s, recover_s;
  std::vector<double> latency_us, issue_us, verify_us;
  std::uint64_t resolutions = 0, mmap_hits = 0, cache_hits = 0;
  std::uint64_t append_bytes = 0, compacted_bytes = 0, traced_requests = 0;

  const Timer wall;
  while (want_round(options, result.rounds, wall.seconds(), kinds)) {
    const bool traced = recorder && result.rounds % kinds == 1;
    TraceRecorder* rec = traced ? recorder.get() : nullptr;

    Timer timer;
    fs::remove_all(dir);
    std::optional<puf::ServerDatabase> db;
    db.emplace(puf::ServerDatabase::open(dir, db_cfg, store_opts));
    for (std::uint64_t id = 0; id < fleet; ++id)
      db->register_device(make_device(id, model_seed));
    db->save(dir);
    db.reset();
    db.emplace(puf::ServerDatabase::open(dir, db_cfg, store_opts));
    setup_s.push_back(timer.seconds());

    RegistryDelta delta;
    delta.begin();
    if (traced) traced_delta.begin();
    const std::uint64_t bytes_before = store_bytes(*db);
    std::uint64_t digest = 0xc0ffee;
    std::uint64_t approved = 0;
    timer.reset();
    {
      const ScopedSpan round_span(rec, ids[kRound], result.rounds);
      for (std::uint64_t r = 0; r < requests; ++r) {
        const std::uint64_t pass = r / fleet;
        const auto id =
            static_cast<std::size_t>(scatter((r + pass * (fleet / kPasses)) % fleet, fleet));
        Rng rng = request_family.stream(r);
        puf::ChallengeBatch batch;
        puf::AuthenticationOutcome outcome;
        {
          const ScopedSpan request_span(rec, ids[kRequest], r);
          const Timer request_timer;
          {
            const ScopedSpan span(rec, ids[kIssue], r);
            batch = db->issue(id, rng);
          }
          const double issued = request_timer.seconds();
          {
            const ScopedSpan span(rec, ids[kVerify], r);
            outcome = db->verify(id, batch, batch.expected);
          }
          const double elapsed = request_timer.seconds();
          // Latency samples are reported by traced runs only; untraced runs
          // keep none, so their peak RSS does not grow with the round count.
          if (traced) {
            issue_us.push_back(issued * 1e6);
            verify_us.push_back((elapsed - issued) * 1e6);
          } else if (recorder) {
            latency_us.push_back(elapsed * 1e6);
          }
        }
        approved += outcome.approved ? 1 : 0;
        mix(digest, id);
        mix(digest, batch.candidates_tried);
        for (const bool bit : batch.expected) mix(digest, bit ? 1 : 0);
      }
    }
    const double traffic_s = timer.seconds();
    delta.end();
    if (traced) {
      traced_delta.end();
      traced_requests += requests;
      rate_traced.push_back(static_cast<double>(requests) / traffic_s);
    } else {
      rate.push_back(static_cast<double>(requests) / traffic_s);
    }
    append_bytes += store_bytes(*db) - bytes_before;

    result.check(approved == requests, "verify denied an honestly answered batch");
    result.check(delta.counter("auth.pool_hits") + delta.counter("auth.pool_misses") ==
                     delta.counter("db.issue_requests"),
                 "pool hits + misses != db.issue_requests");
    result.check(delta.counter("db.issue_requests") == requests, "issue requests lost");
    result.check(delta.counter("auth.replay_rejected") == 0, "replay rejections");
    // Only refills resolve models; each resolution is exactly one LRU hit,
    // LRU miss or mapped view.
    const std::uint64_t round_resolutions = delta.counter("db.cache_hits") +
                                            delta.counter("db.cache_misses") +
                                            delta.counter("db.mmap_hits");
    result.check(round_resolutions == delta.counter("auth.pool_refills"),
                 "model resolutions != pool refills");
    result.check(delta.counter("db.mmap_hits") > 0, "no mapped model view served");
    result.check((delta.counter("db.mmap_hits") > 0) == (delta.counter("db.mmap_bytes") > 0),
                 "db.mmap_hits and db.mmap_bytes disagree");
    resolutions += round_resolutions;
    mmap_hits += delta.counter("db.mmap_hits");
    cache_hits += delta.counter("db.cache_hits");

    timer.reset();
    db->save(dir);
    compact_s.push_back(timer.seconds());
    compacted_bytes = store_bytes(*db);
    std::vector<double> reopen_s;
    for (std::size_t k = 0; k < kReopens; ++k) {
      db.reset();
      timer.reset();
      db.emplace(puf::ServerDatabase::open(dir, db_cfg, store_opts));
      reopen_s.push_back(timer.seconds());
    }
    recover_s.push_back(median(reopen_s));
    result.check(db->device_count() == fleet, "reopened store lost devices");
    result.check(db->store().issued_total() == requests * kChallengeCount,
                 "reopened store lost issued challenges");
    mix(digest, db->store().issued_total());
    result.check_digest(digest);
    result.attempted += requests;
    result.failed += requests - approved;
    ++result.rounds;
    db.reset();
  }
  fs::remove_all(dir);

  result.e2e("setup_s", best_seconds(setup_s), "s");
  result.e2e("ops_per_s", best_rate(rate), "1/s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  result.sizes["rounds_measured"] = static_cast<double>(rate.size());
  if (!recorder) return result;

  const auto table = recorder->self_times();
  const auto total = [&](const char* name) {
    const auto it = table.find(name);
    return it == table.end() ? 0.0 : it->second.total_s;
  };
  const double n = static_cast<double>(traced_requests);
  const double issue_s = traced_delta.span_seconds("db.issue_batch");
  const double refill_s = traced_delta.span_seconds("db.pool_refill");
  const auto tried = static_cast<double>(traced_delta.counter("selection.candidates_tried"));
  const auto accepted = static_cast<double>(traced_delta.counter("selection.accepted"));
  const auto refills = static_cast<double>(traced_delta.counter("auth.pool_refills"));
  const auto hits = static_cast<double>(traced_delta.counter("auth.pool_hits"));
  const auto misses = static_cast<double>(traced_delta.counter("auth.pool_misses"));
  const double round_s = total("auth_store.round");

  result.sizes["latency_samples"] = static_cast<double>(latency_us.size());
  result.layer("auth_p50_us", quantile(latency_us, 0.50), "us");
  result.layer("auth_p99_us", quantile(latency_us, 0.99), "us");
  result.layer("compact_s", median(compact_s), "s");
  result.layer("recover_s", median(recover_s), "s");
  result.layer("puf.screen.candidates_per_auth", tried / n, "count");
  result.layer("puf.screen.accept_ratio", accepted / tried, "ratio");
  result.layer("puf.screen.us_per_candidate", refill_s * 1e6 / tried, "us");
  result.layer("puf.db.issue_p50_us", quantile(issue_us, 0.50), "us");
  result.layer("puf.db.verify_p50_us", quantile(verify_us, 0.50), "us");
  result.layer("puf.db.refills_per_auth", refills / n, "count");
  result.layer("puf.db.refill_ms", refills > 0.0 ? refill_s * 1e3 / refills : 0.0, "ms");
  result.layer("puf.db.pool_hit_ratio", hits / (hits + misses), "ratio");
  result.layer("puf.store.drain_us_per_auth", (issue_s - refill_s) * 1e6 / n, "us");
  result.layer("puf.store.append_bytes_per_auth",
               static_cast<double>(append_bytes) /
                   static_cast<double>(requests * result.rounds),
               "B");
  result.layer("puf.store.cache_hit_ratio",
               static_cast<double>(cache_hits) / static_cast<double>(resolutions), "ratio");
  result.layer("puf.store.mmap_hit_ratio",
               static_cast<double>(mmap_hits) / static_cast<double>(resolutions), "ratio");
  result.layer("puf.store.bytes_per_device",
               static_cast<double>(compacted_bytes) / static_cast<double>(fleet), "B");
  result.layer("share.screen", refill_s / round_s, "ratio");
  result.layer("share.db", (total("puf.db.issue") - refill_s + total("puf.db.verify")) / round_s,
               "ratio");
  result.layer("trace.coverage", coverage_of(*recorder, "auth_store.round"), "ratio");
  result.layer("trace.overhead_ratio", median(rate) / median(rate_traced), "ratio");
  write_trace(*recorder, options, result);
  return result;
}

}  // namespace xpuf::bench_e2e
