// onboard: fleet onboarding as one pipeline. Each round fabricates one
// fixed lot of 10-PUF chips, enrolls every chip with the paper's training
// set (soft-response scan + linear-regression fit, one parallel_for over the
// global pool, stream-keyed so the models do not depend on its lane count),
// registers the models into a fresh 16-shard store with issuance pools,
// compacts the store and reopens it. This is the only workload that runs the
// sim soft-scan and the ml fit; the store sees a single bulk writer.
#include "workloads.hpp"

#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "puf/database.hpp"
#include "puf/enrollment.hpp"
#include "sim/population.hpp"
#include "trace.hpp"

namespace xpuf::bench_e2e {

namespace {

/// Chips onboarded per round: small rounds, so a run has a few hundred of
/// them to take its best from.
constexpr std::size_t kDevices = 4;
constexpr std::size_t kPufs = 10;
/// The lot is fixed, as in serve: how many candidates a pool costs depends
/// on the chip, so a seeded lot would make the work itself vary by seed. The
/// seed drives enrollment challenges and noise and the pool streams.
constexpr std::uint64_t kLotSeed = 0x0b0a7d10ull;
constexpr std::uint32_t kShards = 16;
constexpr std::size_t kPoolTarget = 96;
constexpr std::size_t kPoolLowWater = 8;
constexpr std::size_t kChallengeCount = 16;

enum SpanId : std::size_t { kRound, kFleet, kEnroll, kRegister, kCompact, kReopen };

}  // namespace

Result run_onboard(const Options& options) {
  namespace fs = std::filesystem;
  Result result;
  const std::size_t devices = options.size(kDevices, 2);

  // The paper's training set: 5,000 challenges x 10,000 evaluations.
  puf::EnrollmentConfig enroll_cfg;
  const puf::Enroller enroller(enroll_cfg);
  const puf::BetaFactors betas{0.9, 1.1};

  puf::DatabaseConfig db_cfg;
  db_cfg.n_pufs = kPufs;
  db_cfg.policy.challenge_count = kChallengeCount;
  db_cfg.pool.target = kPoolTarget;
  db_cfg.pool.low_water = kPoolLowWater;
  db_cfg.pool.seed ^= options.seed;
  puf::store::StoreOptions store_opts;
  store_opts.n_shards = kShards;
  store_opts.cache_capacity = devices;

  sim::PopulationConfig pop_cfg;
  pop_cfg.n_chips = devices;
  pop_cfg.n_pufs_per_chip = kPufs;
  pop_cfg.seed = kLotSeed;
  const StreamFamily enroll_family(Rng(options.seed ^ 0x0b0a7d00ull).fork_base());
  const std::string dir = options.work_dir + "/onboard_store";

  result.sizes["devices_per_round"] = static_cast<double>(devices);
  result.sizes["pufs"] = static_cast<double>(kPufs);
  result.sizes["training_challenges"] = static_cast<double>(enroll_cfg.training_challenges);
  result.sizes["trials"] = static_cast<double>(enroll_cfg.trials);
  result.sizes["shards"] = static_cast<double>(kShards);
  result.sizes["pool_target"] = static_cast<double>(kPoolTarget);
  result.sizes["pool_low_water"] = static_cast<double>(kPoolLowWater);

  std::unique_ptr<TraceRecorder> recorder;
  if (options.traced()) recorder = std::make_unique<TraceRecorder>();
  const SpanNames ids(recorder.get(), {"onboard.round", "pool.enroll_fleet", "puf.enroll",
                                       "puf.db.register", "puf.store.compact",
                                       "puf.store.reopen"});
  const std::size_t kinds = recorder ? 2 : 1;
  RegistryDelta traced_delta;
  std::vector<double> setup_s, rate, rate_traced, compact_s, recover_s;
  std::uint64_t store_bytes = 0;
  std::uint64_t traced_devices = 0;

  const Timer wall;
  while (want_round(options, result.rounds, wall.seconds(), kinds)) {
    const bool traced = recorder && result.rounds % kinds == 1;
    TraceRecorder* rec = traced ? recorder.get() : nullptr;

    Timer timer;
    const sim::ChipPopulation lot(pop_cfg);
    fs::remove_all(dir);
    std::optional<puf::ServerDatabase> db;
    db.emplace(puf::ServerDatabase::open(dir, db_cfg, store_opts));
    setup_s.push_back(timer.seconds());

    if (traced) traced_delta.begin();
    timer.reset();
    double compact = 0.0;
    double recover = 0.0;
    {
      const ScopedSpan round_span(rec, ids[kRound], result.rounds);
      std::vector<puf::ServerModel> models(devices);
      {
        const ScopedSpan fleet(rec, ids[kFleet], result.rounds);
        const std::uint32_t fleet_index = fleet.index();
        parallel_for(devices, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t i = begin; i < end; ++i) {
            const ScopedSpan span(rec, ids[kEnroll], i, fleet_index);
            Rng rng = enroll_family.stream(i);
            models[i] = enroller.enroll(lot.chip(i), rng);
            models[i].set_betas(betas);
          }
        });
      }
      for (std::size_t i = 0; i < devices; ++i) {
        const ScopedSpan span(rec, ids[kRegister], i);
        db->register_device(std::move(models[i]));
      }
      Timer lap;
      {
        const ScopedSpan span(rec, ids[kCompact], result.rounds);
        db->save(dir);
      }
      compact = lap.seconds();
      lap.reset();
      {
        const ScopedSpan span(rec, ids[kReopen], result.rounds);
        db.reset();
        db.emplace(puf::ServerDatabase::open(dir, db_cfg, store_opts));
      }
      recover = lap.seconds();
    }
    const double measured = timer.seconds();
    if (traced) {
      traced_delta.end();
      traced_devices += devices;
      rate_traced.push_back(static_cast<double>(devices) / measured);
    } else {
      rate.push_back(static_cast<double>(devices) / measured);
      compact_s.push_back(compact);
      recover_s.push_back(recover);
    }

    // Outcome: every model read back from the reopened store, its full
    // issuance pool, and the compacted store bytes.
    std::uint64_t digest = 0xc0ffee;
    result.check(db->device_count() == devices, "reopened store lost devices");
    result.check(db->store().issued_total() == 0, "onboarding issued challenges");
    for (std::size_t id = 0; id < devices && db->knows(id); ++id) {
      const auto model = db->model_snapshot(id);
      for (std::size_t p = 0; p < model->puf_count(); ++p) {
        for (const double w : model->puf(p).model.weights().span()) mix_double(digest, w);
        mix_double(digest, model->puf(p).thresholds.thr0);
        mix_double(digest, model->puf(p).thresholds.thr1);
      }
      const std::size_t pooled = db->pool_remaining(id);
      result.check(pooled == kPoolTarget, "device registered without a full pool");
      mix(digest, pooled);
    }
    store_bytes = 0;
    for (std::uint32_t k = 0; k < db->store().n_shards(); ++k)
      store_bytes += db->store().shard_size(k);
    mix(digest, store_bytes);
    result.check_digest(digest);
    result.attempted += devices;
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
  const double n = static_cast<double>(traced_devices);
  const double scan_s = traced_delta.span_seconds("tester.scan_stream_chunk");
  const double enroll_s = traced_delta.span_seconds("puf.enroll_stream");
  const double refill_s = traced_delta.span_seconds("db.pool_refill");
  const auto tried = static_cast<double>(traced_delta.counter("selection.candidates_tried"));
  const auto accepted = static_cast<double>(traced_delta.counter("selection.accepted"));
  result.layer("sim.scan_ms_per_device", scan_s * 1e3 / n, "ms");
  result.layer("sim.measurements_per_device",
               static_cast<double>(traced_delta.counter("tester.measurements")) / n, "count");
  result.layer("ml.fit_ms_per_device", (enroll_s - scan_s) * 1e3 / n, "ms");
  result.layer("puf.screen.candidates_per_device", tried / n, "count");
  result.layer("puf.screen.accept_ratio", accepted / tried, "ratio");
  result.layer("puf.screen.us_per_candidate", refill_s * 1e6 / tried, "us");
  result.layer("puf.db.register_ms_per_device", total("puf.db.register") * 1e3 / n, "ms");
  result.layer("puf.store.bytes_per_device",
               static_cast<double>(store_bytes) / static_cast<double>(devices), "B");
  result.layer("compact_s", median(compact_s), "s");
  result.layer("recover_s", median(recover_s), "s");

  // Shares of the traced round's wall time. Enrollment runs on kLanes lanes,
  // so its wall time is split by the thread-time ratio of scan to fit.
  const double round_s = total("onboard.round");
  const double sim_frac = enroll_s > 0.0 ? scan_s / enroll_s : 0.0;
  result.layer("share.sim", total("pool.enroll_fleet") * sim_frac / round_s, "ratio");
  result.layer("share.ml", total("pool.enroll_fleet") * (1.0 - sim_frac) / round_s, "ratio");
  result.layer("share.screen", refill_s / round_s, "ratio");
  result.layer("share.db",
               (total("puf.db.register") - refill_s + total("puf.store.compact") +
                total("puf.store.reopen")) /
                   round_s,
               "ratio");
  result.layer("trace.coverage", coverage_of(*recorder, "onboard.round"), "ratio");
  result.layer("trace.overhead_ratio", median(rate) / median(rate_traced), "ratio");
  write_trace(*recorder, options, result);
  return result;
}

}  // namespace xpuf::bench_e2e
