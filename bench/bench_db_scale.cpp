// Million-device enrollment-store harness.
//
// Proves the crash-safe ServerDatabase backend at fleet scale: registers
// --devices synthetic devices into a store-backed database (every REGISTER
// durably appended), then drives sustained issue+verify traffic with the
// LRU model cache capped at 1% of the fleet. Three properties are asserted
// in-run, not just reported:
//
//   flat RSS      — peak RSS after a quarter of the authentication traffic
//                   vs after all of it; growth beyond --rss-slack-mb means
//                   serving is buffering O(fleet), and the bench fails.
//   zero drift    — exact accounting identities over the store's metrics:
//                   hits + misses + mmap hits == model resolutions == auths
//                   (verify is pure policy; only issue resolves), evictions
//                   == insertions - cache occupancy, db.ledger_size ==
//                   per-shard totals == challenges issued.
//   recoverability— the log replays after the traffic (timed), and
//                   compaction preserves device count, ledger totals and a
//                   spot-checked model bit pattern.
//
// The A/B pair gated by tools/check_bench_regression.py serves a hot
// working set through the LRU cache (uncached_seconds / cached_seconds):
// the reference side re-decodes the REGISTER record on every request
// (cache_capacity 1), the optimized side holds the hot set resident.
//
// Timing JSON fields (bench_out/db_scale_timing.json):
//   items                                    authentications served (issue +
//                                            verify) over every auth rep
//   devices, auths, reps, min_of_reps = 1    fleet size, auths per rep, and
//                                            --auth-reps, the rep count both
//                                            timed phases take their min
//                                            over
//   enroll_seconds, devices_per_sec          registration phase (runs once)
//   auth_seconds, auths_per_sec              sustained issue+verify
//                                            (min over the reps)
//   auth_p50_ms, auth_p99_ms                 per-auth wall latency quantiles
//                                            (auth.latency_ms histogram)
//   rss_quarter_mb, rss_full_mb              flat-RSS probe
//   uncached_seconds, cached_seconds         hot-set serving A/B (min over
//                                            the reps, sides interleaved)
//   recovery_seconds                         full log replay (reopen)
//   compact_seconds                          log compaction
//
//   ./bench_db_scale --devices 1000000       # acceptance fleet
//   ./bench_db_scale --devices 20000         # reduced (default)
//   ./bench_db_scale --auths 20000 --cache-pct 1
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "puf/database.hpp"
#include "puf/store/store.hpp"

namespace {

/// Peak resident set of the process in MiB (ru_maxrss is KiB on Linux).
double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Deterministic synthetic enrollment: weights drawn from the device-id
/// seed with magnitudes that keep nearly every challenge predicted-stable,
/// so challenge selection costs what it costs in production (a handful of
/// draws) instead of depending on simulated silicon.
xpuf::puf::ServerModel make_device(std::uint64_t id, std::size_t n_pufs,
                                   std::size_t stages) {
  xpuf::Rng rng(0x5eed0000u + id);
  std::vector<xpuf::puf::PufEnrollment> pufs;
  pufs.reserve(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    xpuf::puf::PufEnrollment e;
    xpuf::linalg::Vector w(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i) w[i] = rng.uniform(-2.0, 2.0);
    e.model = xpuf::puf::ArbiterPufModel(std::move(w));
    e.thresholds.thr0 = -0.5;
    e.thresholds.thr1 = 0.5;
    e.train_r_squared = 0.99;
    e.fit_time_ms = 0.0;
    pufs.push_back(std::move(e));
  }
  return xpuf::puf::ServerModel(static_cast<std::size_t>(id), std::move(pufs));
}

/// Knuth multiplicative stride over [0, n): visits every id once before
/// repeating, in an order that defeats both the LRU cache and readahead.
std::uint64_t scatter(std::uint64_t i, std::uint64_t n) {
  return (i * 2654435761ull) % n;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xpuf;
  benchutil::BenchHarness bench(
      argc, argv, "db_scale",
      "Enrollment store at fleet scale: durable log + LRU-bounded serving");
  const BenchScale& scale = bench.scale();
  const auto devices = static_cast<std::uint64_t>(
      bench.cli().get_int("devices", scale.full ? 1'000'000 : 20'000));
  const auto auths =
      static_cast<std::uint64_t>(bench.cli().get_int("auths", scale.full ? 20'000 : 2'000));
  const auto n_pufs = static_cast<std::size_t>(bench.cli().get_int("pufs", 10));
  const auto stages = static_cast<std::size_t>(bench.cli().get_int("stages", 64));
  const auto cache_pct = static_cast<double>(bench.cli().get_int("cache-pct", 1));
  const auto n_shards = static_cast<std::uint32_t>(bench.cli().get_int("shards", 64));
  const double rss_slack_mb =
      static_cast<double>(bench.cli().get_int("rss-slack-mb", 64));
  const auto hot_rounds = static_cast<std::uint64_t>(bench.cli().get_int("hot-rounds", 50));
  XPUF_REQUIRE(devices >= 100, "fleet bench needs at least 100 devices");
  XPUF_REQUIRE(auths >= 8, "fleet bench needs at least 8 authentications");
  const auto auth_reps =
      static_cast<std::uint64_t>(bench.cli().get_int("auth-reps", 3));
  XPUF_REQUIRE(auth_reps >= 1, "the timed phases need at least one rep");
  const auto cache_capacity = static_cast<std::size_t>(std::max<double>(
      1.0, static_cast<double>(devices) * cache_pct / 100.0));
  bench.set_items(auths * auth_reps);

  const std::string dir =
      bench.cli().get("dir", benchutil::out_dir() + "/db_scale_store");
  std::filesystem::remove_all(dir);

  puf::DatabaseConfig cfg;
  cfg.n_pufs = n_pufs;
  cfg.policy.challenge_count = 16;
  puf::store::StoreOptions opts;
  opts.n_shards = n_shards;
  opts.cache_capacity = cache_capacity;

  auto& registry = MetricsRegistry::global();
  Counter& hits = registry.counter("db.cache_hits");
  Counter& misses = registry.counter("db.cache_misses");
  Counter& evictions = registry.counter("db.cache_evictions");
  Counter& issued = registry.counter("db.challenges_issued");
  Counter& mmap_hits = registry.counter("db.mmap_hits");
  const std::uint64_t hits0 = hits.total();
  const std::uint64_t misses0 = misses.total();
  const std::uint64_t evictions0 = evictions.total();
  const std::uint64_t issued0 = issued.total();
  const std::uint64_t mmap0 = mmap_hits.total();

  // --- phase 1: enrollment -------------------------------------------------
  puf::ServerDatabase db = puf::ServerDatabase::open(dir, cfg, opts);
  Timer timer;
  for (std::uint64_t id = 0; id < devices; ++id)
    db.register_device(make_device(id, n_pufs, stages));
  const double enroll_seconds = timer.seconds();
  const double devices_per_sec = static_cast<double>(devices) / enroll_seconds;
  XPUF_REQUIRE(db.device_count() == devices, "fleet went missing during enrollment");
  const double rss_enrolled = max_rss_mb();

  // --- phase 2: sustained authentication, flat-RSS probe -------------------
  // Uniformly scattered device ids: with the cache at cache_pct% of the
  // fleet nearly every request decodes from the log, which is exactly the
  // bounded-memory path the probe must stress. The walk runs --auth-reps
  // times over the same scattered sequence and auth_seconds is the
  // min-of-reps (load spikes inflate a mean, never a min); per-auth wall
  // latency feeds the auth.latency_ms histogram across every rep so the
  // p50/p99 fields cover the steady state, not one cold pass.
  Rng auth_rng(20260808);
  Histogram& auth_latency = registry.histogram(
      "auth.latency_ms",
      {0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0,
       50.0, 100.0});
  std::uint64_t approved = 0;
  std::uint64_t auths_done = 0;
  const auto authenticate_one = [&](std::uint64_t i) {
    const auto id = static_cast<std::size_t>(scatter(i, devices));
    Timer one;
    const puf::ChallengeBatch batch = db.issue(id, auth_rng);
    const puf::AuthenticationOutcome out = db.verify(id, batch, batch.expected);
    auth_latency.observe(one.seconds() * 1e3);
    if (out.approved) ++approved;
    ++auths_done;
  };
  double auth_seconds = std::numeric_limits<double>::infinity();
  double rss_quarter = 0.0;
  double rss_full = 0.0;
  const std::uint64_t quarter = auths / 4;
  for (std::uint64_t rep = 0; rep < auth_reps; ++rep) {
    timer.reset();
    for (std::uint64_t i = 0; i < quarter; ++i) authenticate_one(i);
    // The flat-RSS probe brackets the first rep: the cold pass is where an
    // O(fleet) buffer would grow, later reps only re-walk resident state.
    if (rep == 0) rss_quarter = max_rss_mb();
    for (std::uint64_t i = quarter; i < auths; ++i) authenticate_one(i);
    auth_seconds = std::min(auth_seconds, timer.seconds());
    if (rep == 0) rss_full = max_rss_mb();
  }
  const double rss_delta = rss_full - rss_quarter;
  const bool memory_flat = rss_delta <= rss_slack_mb;
  const double auths_per_sec = static_cast<double>(auths) / auth_seconds;
  const double auth_p50_ms = auth_latency.quantile(0.5);
  const double auth_p99_ms = auth_latency.quantile(0.99);
  XPUF_REQUIRE(approved == auths_done, "model-consistent responses must authenticate");
  XPUF_REQUIRE(auth_latency.total() == auths_done,
               "latency histogram drifted from the auth count");

  // --- phase 3: zero metrics drift -----------------------------------------
  const puf::store::EnrollmentStore& store = db.store();
  // verify() is pure policy since the screening rework — only the issue
  // path resolves a model, through exactly one of the LRU (hit/miss) or the
  // mapped-snapshot fast path.
  const std::uint64_t resolutions = (hits.total() - hits0) +
                                    (misses.total() - misses0) +
                                    (mmap_hits.total() - mmap0);
  const std::uint64_t inserts = devices + (misses.total() - misses0);
  std::uint64_t shard_sum = 0;
  for (std::uint32_t k = 0; k < store.n_shards(); ++k)
    shard_sum += store.shard_issued_total(k);
  XPUF_REQUIRE(resolutions == auths_done,
               "cache accounting drifted: each auth resolves its model exactly once");
  XPUF_REQUIRE(inserts == store.cache_size() + (evictions.total() - evictions0),
               "eviction accounting drifted from cache occupancy");
  XPUF_REQUIRE(store.cache_size() <= cache_capacity, "LRU exceeded its capacity");
  XPUF_REQUIRE(shard_sum == store.issued_total(),
               "per-shard ledger totals drifted from the fleet total");
  XPUF_REQUIRE(issued.total() - issued0 == store.issued_total(),
               "db.challenges_issued drifted from the durable ledger total");
  XPUF_REQUIRE(registry.gauge("db.ledger_size").get() ==
                   static_cast<double>(store.issued_total()),
               "db.ledger_size gauge drifted from the fleet ledger total");
  XPUF_REQUIRE(registry.gauge("db.devices").get() == static_cast<double>(devices),
               "db.devices gauge drifted from the registry");
  const double hit_rate =
      static_cast<double>(hits.total() - hits0) / static_cast<double>(resolutions);

  // --- phase 4: hot-set serving A/B ----------------------------------------
  // A working set that fits the cache, served from the warm store (cached)
  // vs a cache_capacity=1 replica of the same directory (uncached: every
  // request re-decodes its REGISTER record).
  const std::uint64_t hot_count = std::min<std::uint64_t>(256, cache_capacity);
  std::vector<std::size_t> hot_ids;
  for (std::uint64_t i = 0; i < hot_count; ++i)
    hot_ids.push_back(static_cast<std::size_t>(scatter(i + 17, devices)));
  double cached_seconds = std::numeric_limits<double>::infinity();
  double uncached_seconds = std::numeric_limits<double>::infinity();
  timer.reset();
  puf::store::StoreOptions cold_opts;
  cold_opts.n_shards = n_shards;
  cold_opts.cache_capacity = 1;
  const puf::store::EnrollmentStore cold =
      puf::store::EnrollmentStore::open(dir, cold_opts);
  const double recovery_seconds = timer.seconds();
  XPUF_REQUIRE(cold.device_count() == devices, "replay lost devices");
  XPUF_REQUIRE(cold.issued_total() == store.issued_total(), "replay lost ledger entries");
  for (std::uint64_t rep = 0; rep < auth_reps; ++rep) {
    timer.reset();
    for (std::uint64_t round = 0; round < hot_rounds; ++round)
      for (const std::size_t id : hot_ids) (void)store.model(id);
    cached_seconds = std::min(cached_seconds, timer.seconds());
    timer.reset();
    for (std::uint64_t round = 0; round < hot_rounds; ++round)
      for (const std::size_t id : hot_ids) (void)cold.model(id);
    uncached_seconds = std::min(uncached_seconds, timer.seconds());
  }
  const double speedup =
      cached_seconds > 0.0 ? uncached_seconds / cached_seconds : 0.0;

  // --- phase 5: compaction -------------------------------------------------
  const std::uint64_t issued_before_compact = store.issued_total();
  const auto spot_id = static_cast<std::size_t>(devices / 2);
  const auto spot_before = db.model_snapshot(spot_id);
  timer.reset();
  db.save(dir);  // compacts the log in place
  const double compact_seconds = timer.seconds();
  const auto spot_after = db.model_snapshot(spot_id);
  XPUF_REQUIRE(db.device_count() == devices, "compaction lost devices");
  XPUF_REQUIRE(store.issued_total() == issued_before_compact,
               "compaction lost ledger entries");
  for (std::size_t p = 0; p < n_pufs; ++p)
    XPUF_REQUIRE(spot_before->puf(p).model.weights() == spot_after->puf(p).model.weights(),
                 "compaction altered a stored model");

  bench.set_field("devices", static_cast<double>(devices));
  bench.set_field("auths", static_cast<double>(auths));
  bench.set_field("reps", static_cast<double>(auth_reps));
  bench.set_field("min_of_reps", 1.0);
  bench.set_field("enroll_seconds", enroll_seconds);
  bench.set_field("devices_per_sec", devices_per_sec);
  bench.set_field("auth_seconds", auth_seconds);
  bench.set_field("auths_per_sec", auths_per_sec);
  bench.set_field("auth_p50_ms", auth_p50_ms);
  bench.set_field("auth_p99_ms", auth_p99_ms);
  bench.set_field("rss_quarter_mb", rss_quarter);
  bench.set_field("rss_full_mb", rss_full);
  bench.set_field("cache_hit_rate", hit_rate);
  bench.set_field("uncached_seconds", uncached_seconds);
  bench.set_field("cached_seconds", cached_seconds);
  bench.set_field("recovery_seconds", recovery_seconds);
  bench.set_field("compact_seconds", compact_seconds);

  Table t("enrollment store at scale");
  t.set_header({"metric", "value"});
  t.add_row({"devices", std::to_string(devices)});
  t.add_row({"shards", std::to_string(n_shards)});
  t.add_row({"cache capacity (" + std::to_string(static_cast<int>(cache_pct)) + "% fleet)",
             std::to_string(cache_capacity)});
  t.add_row({"enroll [s]", Table::num(enroll_seconds, 3)});
  t.add_row({"devices/sec", Table::num(devices_per_sec, 0)});
  t.add_row({"authentications", std::to_string(auths) + " x " +
                                    std::to_string(auth_reps) + " reps"});
  t.add_row({"auth [s] (min of reps)", Table::num(auth_seconds, 3)});
  t.add_row({"auths/sec", Table::num(auths_per_sec, 0)});
  t.add_row({"auth p50 [ms]", Table::num(auth_p50_ms, 4)});
  t.add_row({"auth p99 [ms]", Table::num(auth_p99_ms, 4)});
  t.add_row({"cache hit rate", Table::num(hit_rate, 4)});
  t.add_row({"peak RSS enrolled [MiB]", Table::num(rss_enrolled, 1)});
  t.add_row({"peak RSS @ quarter traffic [MiB]", Table::num(rss_quarter, 1)});
  t.add_row({"peak RSS @ full traffic [MiB]", Table::num(rss_full, 1)});
  t.add_row({"RSS delta [MiB]", Table::num(rss_delta, 1)});
  t.add_row({"RSS flat (delta <= slack)", memory_flat ? "yes" : "NO"});
  t.add_row({"hot-set uncached [s]", Table::num(uncached_seconds, 4)});
  t.add_row({"hot-set cached [s]", Table::num(cached_seconds, 4)});
  t.add_row({"LRU speedup", Table::num(speedup, 2)});
  t.add_row({"log replay (reopen) [s]", Table::num(recovery_seconds, 3)});
  t.add_row({"compaction [s]", Table::num(compact_seconds, 3)});
  t.print();

  std::filesystem::remove_all(dir);
  if (!memory_flat) {
    std::fprintf(stderr,
                 "ERROR: peak RSS grew %.1f MiB between quarter- and full-traffic "
                 "readings (slack %.1f MiB) — serving is not bounded-memory\n",
                 rss_delta, rss_slack_mb);
    return 1;
  }
  return 0;
}
