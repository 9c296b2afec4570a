// Authentication hot path at fleet scale: screening + issuance A/B harness.
//
// The paper's issuance is rejection sampling — draw random challenges, keep
// the ones predicted stable on ALL n XOR'd PUFs (acceptance ~0.800^n, about
// 10.7% at the paper's n = 10) — so a naive server burns ~challenge_count /
// 0.800^n model evaluations per authentication. This bench measures the two
// optimizations that remove that cost from the hot path, each against its
// reference implementation on the same workload, with bit-identity and
// zero-metrics-drift audits run in-process (the exit code IS the audit):
//
//   screening A/B — ChallengeScreener serial (per-candidate reference walk)
//       vs batched (packed candidate blocks screened as a survivor
//       cascade: PUF p is evaluated, by sim::parity_dots over the
//       candidates' suffix-parity words, only on the candidates still
//       stable on PUFs 0..p-1). The issued
//       challenge sequence, expected-response bits and exact
//       candidates_tried are asserted bit-identical per sampled device
//       before either side is timed.
//
//   issuance A/B — issue_live (screens candidates at request time, the
//       reference) vs issue (drains the device's pre-screened persistent
//       pool, refilled off the hot path). Disjoint scattered device slices
//       keep the replay ledgers independent; a purity audit re-derives a
//       pooled batch from a fresh private-store twin database and asserts
//       the durable fleet's drain issued the identical challenges — the
//       pooled sequence is a pure function of (pool seed, device id), not
//       of store location, caller RNG, or fleet history.
//
// The fleet is store-backed (durable sharded op log) with the model LRU
// capped at --cache-pct of the fleet and the log compacted before traffic,
// so cold model resolutions during the issuance phase exercise the
// zero-copy mmap path (db.mmap_hits) rather than record re-decoding.
//
// In-run audits (any failure exits non-zero):
//   bit-identity  — serial == batched screening walks per sampled device;
//                   store-backed pooled drain == fresh-twin pooled drain.
//   zero drift    — auth.pool_hits + auth.pool_misses == db.issue_requests,
//                   zero pool misses on the pooled slice, model resolutions
//                   (LRU hits + misses + mmap hits) == live-side auths,
//                   db.challenges_issued == both sides' batch totals,
//                   zero replay rejections, mmap hits > 0 post-compaction.
//   flat RSS      — peak RSS after the first timed rep vs after the last;
//                   growth beyond --rss-slack-mb plus the accounted
//                   replay-ledger growth (every issued challenge is
//                   remembered, O(issued) by design) fails the run.
//
// Timing JSON fields (bench_out/auth_throughput_timing.json), all min-of-
// --reps with the A/B sides interleaved inside each rep so drift hits both:
//   enroll_seconds, devices_per_sec          pool-enabled registration
//   compact_seconds                          log compaction (enables mmap)
//   screen_serial_seconds, screen_batched_seconds, screen_speedup
//   issue_live_seconds, issue_pooled_seconds, pool_speedup
//   auths_per_sec                            pooled side (the headline)
//   auths_per_sec_live                       reference side
//   rss_first_rep_mb, rss_full_mb            flat-RSS probe
//
// tools/check_bench_regression.py gates both pairs; --require-speedup N
// additionally asserts the pooled side is at least N× live in-process (the
// acceptance run uses --require-speedup 3 at --devices 1000000).
//
//   ./bench_auth_throughput --devices 1000000 --require-speedup 3   # acceptance
//   ./bench_auth_throughput                                         # reduced CI
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "puf/database.hpp"
#include "puf/model_view.hpp"
#include "puf/screening.hpp"
#include "puf/store/store.hpp"

namespace {

/// Peak resident set of the process in MiB (ru_maxrss is KiB on Linux).
double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Deterministic synthetic enrollment with the PAPER's screening cost:
/// weights are drawn from the device-id seed, and each PUF's thresholds are
/// sized against its own response spread so the predicted-stable fraction
/// is Fig. 3's ~0.800 per PUF — i.e. XOR acceptance ~0.800^n, about 10.7 %
/// at n = 10. (Responses over random ±1 feature rows are ~N(0, Σw²), and
/// P(|Z| < 0.2533) ≈ 0.2.) That is what makes request-time screening
/// expensive and pooling worth having; a looser band would quietly shrink
/// the live side's cost and overstate parity. Regenerating the same id
/// yields a bit-identical model — the property the pooled purity audit
/// relies on.
xpuf::puf::ServerModel make_device(std::uint64_t id, std::size_t n_pufs,
                                   std::size_t stages) {
  xpuf::Rng rng(0x5eed0000u + id);
  std::vector<xpuf::puf::PufEnrollment> pufs;
  pufs.reserve(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    xpuf::puf::PufEnrollment e;
    xpuf::linalg::Vector w(stages + 1);
    double sum_sq = 0.0;
    for (std::size_t i = 0; i <= stages; ++i) {
      w[i] = rng.uniform(-2.0, 2.0);
      sum_sq += w[i] * w[i];
    }
    const double thr = 0.2533 * std::sqrt(sum_sq);
    e.model = xpuf::puf::ArbiterPufModel(std::move(w));
    e.thresholds.thr0 = -thr;
    e.thresholds.thr1 = thr;
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

/// One recorded screening walk: everything the determinism contract pins.
struct ScreenWalk {
  std::vector<xpuf::puf::Challenge> challenges;
  std::vector<bool> bits;
  xpuf::puf::ChallengeScreener::Outcome out;
};

/// Runs one accept-all screening walk over `view` and records the full
/// issued sequence (used for the serial-vs-batched bit-identity audit and
/// as the timed kernel of the screening A/B).
ScreenWalk run_screen(const xpuf::puf::ModelView& view, std::size_t n_pufs,
                      const xpuf::puf::ScreeningOptions& opts,
                      std::uint64_t family_base, std::size_t count,
                      std::size_t max_attempts) {
  using xpuf::puf::Challenge;
  ScreenWalk walk;
  xpuf::puf::ChallengeScreener screener(view, n_pufs, opts);
  const xpuf::StreamFamily family(family_base);
  walk.out = screener.screen(
      family, 0, count, max_attempts, [&](Challenge&& c, bool bit) {
        walk.challenges.push_back(std::move(c));
        walk.bits.push_back(bit);
        return true;
      });
  return walk;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xpuf;
  benchutil::BenchHarness bench(
      argc, argv, "auth_throughput",
      "Authentication hot path: batched screening + pooled issuance A/B");
  const BenchScale& scale = bench.scale();

  const auto devices = static_cast<std::uint64_t>(
      bench.cli().get_int("devices", scale.full ? 1'000'000 : 20'000));
  const auto auths = static_cast<std::uint64_t>(
      bench.cli().get_int("auths", scale.full ? 20'000 : 2'000));
  const auto n_pufs = static_cast<std::size_t>(bench.cli().get_int("pufs", 10));
  const auto stages = static_cast<std::size_t>(bench.cli().get_int("stages", 64));
  const auto cache_pct = static_cast<double>(bench.cli().get_int("cache-pct", 1));
  const auto n_shards = static_cast<std::uint32_t>(bench.cli().get_int("shards", 64));
  const auto pool_target =
      static_cast<std::size_t>(bench.cli().get_int("pool-target", 96));
  const auto reps = static_cast<std::uint64_t>(bench.cli().get_int("reps", 5));
  const auto screen_devices =
      static_cast<std::uint64_t>(bench.cli().get_int("screen-devices", 16));
  const auto screen_count =
      static_cast<std::size_t>(bench.cli().get_int("screen-count", 256));
  const double rss_slack_mb =
      static_cast<double>(bench.cli().get_int("rss-slack-mb", 64));
  const double require_speedup =
      static_cast<double>(bench.cli().get_int("require-speedup", 0));

  XPUF_REQUIRE(devices >= 100, "auth bench needs at least 100 devices");
  XPUF_REQUIRE(auths >= 8 && 2 * auths <= devices,
               "need 8 <= auths and 2*auths <= devices (disjoint A/B slices)");
  XPUF_REQUIRE(reps >= 1, "need at least one timing rep");
  XPUF_REQUIRE(pool_target >= 1, "the pooled side needs pooling enabled");
  const auto cache_capacity = static_cast<std::size_t>(std::max<double>(
      1.0, static_cast<double>(devices) * cache_pct / 100.0));
  bench.set_items(2 * reps * auths);

  const std::string dir =
      bench.cli().get("dir", benchutil::out_dir() + "/auth_throughput_store");
  std::filesystem::remove_all(dir);

  puf::DatabaseConfig cfg;
  cfg.n_pufs = n_pufs;
  cfg.policy.challenge_count = 16;
  cfg.pool.target = pool_target;
  // Default reps (5) drain 5 x 16 = 80 of the 96 pooled entries per touched
  // device, staying above the low-water mark: the timed pooled slice is a
  // pure drain, which is precisely the deployment steady state enrollment
  // pre-screening buys. min-of-5 also rides out bursty neighbor noise on
  // shared single-core CI hosts, which showed up as 2x swings on one rep.
  XPUF_REQUIRE(cfg.pool.target >= cfg.policy.challenge_count,
               "pool must hold at least one full batch");
  puf::store::StoreOptions opts;
  opts.n_shards = n_shards;
  opts.cache_capacity = cache_capacity;

  auto& registry = MetricsRegistry::global();
  std::vector<std::string> drift;
  const auto audit = [&](bool ok, const std::string& what) {
    if (!ok) drift.push_back(what);
  };
  const auto audit_eq = [&](std::uint64_t got, std::uint64_t want,
                            const std::string& what) {
    if (got != want)
      drift.push_back(what + ": got " + std::to_string(got) + ", want " +
                      std::to_string(want));
  };

  // --- phase 1: pool-enabled enrollment ------------------------------------
  // Every REGISTER is durably appended and immediately followed by the
  // device's POOL record: registration pre-screens `pool_target` stable
  // challenges through the batched screener, which is exactly the work the
  // issuance hot path no longer has to do.
  std::printf("enrolling %llu devices (%zu-PUF, %zu stages, pool %zu)...\n",
              static_cast<unsigned long long>(devices), n_pufs, stages,
              pool_target);
  puf::ServerDatabase db = puf::ServerDatabase::open(dir, cfg, opts);
  Timer timer;
  for (std::uint64_t id = 0; id < devices; ++id)
    db.register_device(make_device(id, n_pufs, stages));
  const double enroll_seconds = timer.seconds();
  const double devices_per_sec = static_cast<double>(devices) / enroll_seconds;
  XPUF_REQUIRE(db.device_count() == devices, "fleet went missing during enrollment");

  // --- phase 2: compaction — arms the zero-copy serving path ---------------
  // save() compacts the log in place and the store maps the compacted
  // shards, so every cold model resolution below can hand out weight views
  // pointing straight into the mapped files.
  timer.reset();
  db.save(dir);
  const double compact_seconds = timer.seconds();
  XPUF_REQUIRE(db.device_count() == devices, "compaction lost devices");

  // --- phase 3: screening A/B (serial reference vs batched core) -----------
  // Sampled devices get one full accept-all walk per mode; bit-identity of
  // the issued sequence, the expected bits and the exact tried/accepted
  // accounting is asserted BEFORE either side is timed, so the timing
  // compares two provably equivalent kernels. Walks run on snapshot-backed
  // views (the screener needs the model resident either way); the A/B delta
  // is purely the evaluation strategy.
  std::printf("screening A/B: %llu devices x %zu challenges/walk...\n",
              static_cast<unsigned long long>(screen_devices), screen_count);
  const std::size_t screen_attempts = screen_count * 1000;
  puf::ScreeningOptions serial_opts;
  serial_opts.batched = false;
  puf::ScreeningOptions batched_opts;
  batched_opts.batched = true;
  std::vector<std::shared_ptr<const puf::ServerModel>> screen_models;
  std::vector<std::uint64_t> screen_bases;
  for (std::uint64_t i = 0; i < screen_devices; ++i) {
    const auto id = static_cast<std::size_t>(scatter(31 * i + 7, devices));
    screen_models.push_back(db.model_snapshot(id));
    screen_bases.push_back(0x5c4ee000ull + id);
  }
  std::uint64_t screen_candidates = 0;
  for (std::uint64_t i = 0; i < screen_devices; ++i) {
    const puf::ModelView view = puf::ModelView::of(*screen_models[i]);
    const ScreenWalk serial = run_screen(view, n_pufs, serial_opts,
                                         screen_bases[i], screen_count,
                                         screen_attempts);
    const ScreenWalk batched = run_screen(view, n_pufs, batched_opts,
                                          screen_bases[i], screen_count,
                                          screen_attempts);
    audit(serial.out.filled && batched.out.filled,
          "screening walk exhausted its attempt budget");
    audit(serial.challenges == batched.challenges &&
              serial.bits == batched.bits,
          "serial and batched screening issued different sequences");
    audit(serial.out.tried == batched.out.tried &&
              serial.out.stable == batched.out.stable &&
              serial.out.accepted == batched.out.accepted &&
              serial.out.next_index == batched.out.next_index,
          "serial and batched screening accounting diverged");
    screen_candidates += serial.out.tried;
  }
  double screen_serial_seconds = std::numeric_limits<double>::infinity();
  double screen_batched_seconds = std::numeric_limits<double>::infinity();
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    timer.reset();
    for (std::uint64_t i = 0; i < screen_devices; ++i)
      (void)run_screen(puf::ModelView::of(*screen_models[i]), n_pufs,
                       serial_opts, screen_bases[i], screen_count,
                       screen_attempts);
    screen_serial_seconds = std::min(screen_serial_seconds, timer.seconds());
    timer.reset();
    for (std::uint64_t i = 0; i < screen_devices; ++i)
      (void)run_screen(puf::ModelView::of(*screen_models[i]), n_pufs,
                       batched_opts, screen_bases[i], screen_count,
                       screen_attempts);
    screen_batched_seconds = std::min(screen_batched_seconds, timer.seconds());
  }
  const double screen_speedup =
      screen_batched_seconds > 0.0 ? screen_serial_seconds / screen_batched_seconds
                                   : 0.0;

  // --- phase 4: issuance A/B (live screening vs pooled drain) --------------
  // Disjoint scattered slices: live authenticates ids scatter(0..auths),
  // pooled authenticates ids scatter(auths..2*auths) — scatter is a
  // bijection over one period, so no device appears in both slices and the
  // replay ledgers stay independent. Each timed op is the full server-side
  // request: issue + verify (verify is pure policy since the screening
  // rework — it resolves no model).
  std::printf("issuance A/B: %llu live + %llu pooled auths x %llu reps...\n",
              static_cast<unsigned long long>(auths),
              static_cast<unsigned long long>(auths),
              static_cast<unsigned long long>(reps));
  Counter& issue_requests = registry.counter("db.issue_requests");
  Counter& pool_hits = registry.counter("auth.pool_hits");
  Counter& pool_misses = registry.counter("auth.pool_misses");
  Counter& pool_refills = registry.counter("auth.pool_refills");
  Counter& cache_hits = registry.counter("db.cache_hits");
  Counter& cache_misses = registry.counter("db.cache_misses");
  Counter& mmap_hits = registry.counter("db.mmap_hits");
  Counter& mmap_bytes = registry.counter("db.mmap_bytes");
  Counter& challenges_issued = registry.counter("db.challenges_issued");
  Counter& replay_rejected = registry.counter("auth.replay_rejected");
  const std::uint64_t requests0 = issue_requests.total();
  const std::uint64_t hits0 = pool_hits.total();
  const std::uint64_t misses0 = pool_misses.total();
  const std::uint64_t refills0 = pool_refills.total();
  const std::uint64_t cache0 = cache_hits.total() + cache_misses.total();
  const std::uint64_t mmap0 = mmap_hits.total();
  const std::uint64_t mmap_bytes0 = mmap_bytes.total();
  const std::uint64_t issued0 = challenges_issued.total();
  const std::uint64_t replay0 = replay_rejected.total();

  Rng live_rng(0x11fe0001u);
  Rng pooled_rng(0x900d0002u);
  std::uint64_t live_approved = 0;
  std::uint64_t pooled_approved = 0;
  double issue_live_seconds = std::numeric_limits<double>::infinity();
  double issue_pooled_seconds = std::numeric_limits<double>::infinity();
  double rss_first_rep = 0.0;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    timer.reset();
    for (std::uint64_t i = 0; i < auths; ++i) {
      const auto id = static_cast<std::size_t>(scatter(i, devices));
      const puf::ChallengeBatch batch = db.issue_live(id, live_rng);
      if (db.verify(id, batch, batch.expected).approved) ++live_approved;
    }
    const double live_rep = timer.seconds();
    issue_live_seconds = std::min(issue_live_seconds, live_rep);
    timer.reset();
    for (std::uint64_t i = 0; i < auths; ++i) {
      const auto id = static_cast<std::size_t>(scatter(auths + i, devices));
      const puf::ChallengeBatch batch = db.issue(id, pooled_rng);
      if (db.verify(id, batch, batch.expected).approved) ++pooled_approved;
    }
    const double pooled_rep = timer.seconds();
    issue_pooled_seconds = std::min(issue_pooled_seconds, pooled_rep);
    // Per-rep trace: on shared hosts neighbor noise shows up as outlier
    // reps; printing them makes a weak min-of-reps diagnosable from the log.
    std::printf("  rep %llu: live %.4fs, pooled %.4fs\n",
                static_cast<unsigned long long>(rep), live_rep, pooled_rep);
    if (rep == 0) rss_first_rep = max_rss_mb();
  }
  const double rss_full = max_rss_mb();
  const double rss_delta = rss_full - rss_first_rep;
  // The flat-RSS audit targets O(fleet) buffering, not the replay defense:
  // every issued challenge is durably remembered in the in-memory ledger
  // (a packed key in a per-device std::set), so RSS legitimately grows
  // O(issued) across the post-probe reps. Budget that growth at 128 bytes
  // per key (8 packed + node overhead; ~76 observed) and apply the slack
  // on top — anything beyond it is real buffering.
  const double ledger_growth_mb =
      static_cast<double>(2 * auths * (reps - 1) * cfg.policy.challenge_count) *
      128.0 / (1024.0 * 1024.0);
  const bool memory_flat = rss_delta <= rss_slack_mb + ledger_growth_mb;
  const double auths_per_sec_live =
      static_cast<double>(auths) / issue_live_seconds;
  const double auths_per_sec_pooled =
      static_cast<double>(auths) / issue_pooled_seconds;
  const double pool_speedup =
      issue_pooled_seconds > 0.0 ? issue_live_seconds / issue_pooled_seconds
                                 : 0.0;

  // --- phase 5: zero metrics drift -----------------------------------------
  const std::uint64_t total_auths = reps * auths;
  audit_eq(live_approved, total_auths, "live-side approvals");
  audit_eq(pooled_approved, total_auths, "pooled-side approvals");
  // The pool/issue identity: every issue() is exactly one hit or miss, and
  // on a pure-drain workload (reps * challenge_count <= target - low_water)
  // no pooled request ever misses or refills.
  audit_eq(issue_requests.total() - requests0, total_auths,
           "db.issue_requests vs pooled-side auths");
  audit_eq((pool_hits.total() - hits0) + (pool_misses.total() - misses0),
           issue_requests.total() - requests0,
           "pool hit/miss partition of db.issue_requests");
  audit_eq(pool_misses.total() - misses0, 0, "pooled-slice pool misses");
  if (reps * cfg.policy.challenge_count <= pool_target - cfg.pool.low_water)
    audit_eq(pool_refills.total() - refills0, 0,
             "low-water refills on a pure-drain workload");
  // Model resolution: only the LIVE side resolves models (pooled drains
  // bypass the model entirely; verify is pure policy on both). Exactly one
  // resolution per live auth, through the LRU or the mapped snapshot.
  audit_eq((cache_hits.total() + cache_misses.total() - cache0) +
               (mmap_hits.total() - mmap0),
           total_auths, "model resolutions vs live-side auths");
  audit(mmap_hits.total() - mmap0 > 0,
        "compacted store served no mmap view — zero-copy path unexercised");
  audit((mmap_hits.total() - mmap0 > 0) == (mmap_bytes.total() - mmap_bytes0 > 0),
        "db.mmap_hits and db.mmap_bytes disagree about mapped serving");
  audit_eq(challenges_issued.total() - issued0,
           2 * total_auths * cfg.policy.challenge_count,
           "db.challenges_issued vs both sides' batch totals");
  audit_eq(replay_rejected.total() - replay0, 0,
           "replay rejections on disjoint fresh slices");
  audit_eq(static_cast<std::uint64_t>(registry.gauge("db.devices").get()),
           devices, "db.devices gauge");
  audit(memory_flat, "peak RSS grew " + std::to_string(rss_delta) +
                         " MiB across timed reps (allowed " +
                         std::to_string(rss_slack_mb) + " slack + " +
                         std::to_string(ledger_growth_mb) +
                         " replay-ledger growth)");

  // --- phase 6: pooled purity — drain == fresh-twin drain ------------------
  // A fresh private-store database with the same DatabaseConfig, fed the
  // same synthetic enrollment, must issue the identical first batch for a
  // device as the durable fleet does: the pooled sequence depends on nothing
  // but (pool seed, device id) and the drain history. The sampled ids sit
  // past both timed slices so their store-backed pools are undrained.
  for (std::uint64_t j = 0; j < 4; ++j) {
    const auto id = static_cast<std::size_t>(scatter(2 * auths + j, devices));
    puf::ServerDatabase twin(cfg);
    twin.register_device(make_device(id, n_pufs, stages));
    Rng backed_rng(0xabcd0000u + j);
    Rng twin_rng(0x1234ffffu + 977 * j);  // deliberately different caller RNG
    const puf::ChallengeBatch backed = db.issue(id, backed_rng);
    const puf::ChallengeBatch fresh = twin.issue(id, twin_rng);
    audit(backed.challenges == fresh.challenges &&
              backed.expected == fresh.expected,
          "pooled drain diverged between the backed fleet and a fresh twin "
          "(device " + std::to_string(id) + ")");
  }

  bench.set_field("enroll_seconds", enroll_seconds);
  bench.set_field("devices_per_sec", devices_per_sec);
  bench.set_field("compact_seconds", compact_seconds);
  bench.set_field("screen_serial_seconds", screen_serial_seconds);
  bench.set_field("screen_batched_seconds", screen_batched_seconds);
  bench.set_field("screen_speedup", screen_speedup);
  bench.set_field("issue_live_seconds", issue_live_seconds);
  bench.set_field("issue_pooled_seconds", issue_pooled_seconds);
  bench.set_field("pool_speedup", pool_speedup);
  bench.set_field("auths_per_sec", auths_per_sec_pooled);
  bench.set_field("auths_per_sec_live", auths_per_sec_live);
  bench.set_field("rss_first_rep_mb", rss_first_rep);
  bench.set_field("rss_full_mb", rss_full);

  Table t("authentication hot path A/B");
  t.set_header({"metric", "value"});
  t.add_row({"devices", std::to_string(devices)});
  t.add_row({"pool target / low water",
             std::to_string(pool_target) + " / " +
                 std::to_string(cfg.pool.low_water)});
  t.add_row({"cache capacity (" + std::to_string(static_cast<int>(cache_pct)) +
                 "% fleet)",
             std::to_string(cache_capacity)});
  t.add_row({"enroll [s] (pools pre-screened)", Table::num(enroll_seconds, 3)});
  t.add_row({"devices/sec", Table::num(devices_per_sec, 0)});
  t.add_row({"compaction [s]", Table::num(compact_seconds, 3)});
  t.add_row({"screening candidates/walk-set", std::to_string(screen_candidates)});
  t.add_row({"screen serial [s] (min of reps)",
             Table::num(screen_serial_seconds, 4)});
  t.add_row({"screen batched [s] (min of reps)",
             Table::num(screen_batched_seconds, 4)});
  t.add_row({"screening speedup", Table::num(screen_speedup, 2)});
  t.add_row({"auths per side x reps", std::to_string(auths) + " x " +
                                          std::to_string(reps)});
  t.add_row({"issue live [s] (min of reps)", Table::num(issue_live_seconds, 4)});
  t.add_row({"issue pooled [s] (min of reps)",
             Table::num(issue_pooled_seconds, 4)});
  t.add_row({"auths/sec live", Table::num(auths_per_sec_live, 0)});
  t.add_row({"auths/sec pooled", Table::num(auths_per_sec_pooled, 0)});
  t.add_row({"pooled speedup", Table::num(pool_speedup, 2)});
  t.add_row({"mmap hits (issue phase)",
             std::to_string(mmap_hits.total() - mmap0)});
  t.add_row({"peak RSS @ first rep [MiB]", Table::num(rss_first_rep, 1)});
  t.add_row({"peak RSS @ full [MiB]", Table::num(rss_full, 1)});
  t.add_row({"RSS flat (delta <= slack + ledger)", memory_flat ? "yes" : "NO"});
  t.print();

  std::filesystem::remove_all(dir);

  if (require_speedup > 0.0 && pool_speedup < require_speedup)
    drift.push_back("pooled speedup " + std::to_string(pool_speedup) +
                    " below the required " + std::to_string(require_speedup) +
                    "x floor");
  if (!drift.empty()) {
    std::printf("\nAUDIT FAILURES (%zu):\n", drift.size());
    for (const auto& v : drift) std::printf("  %s\n", v.c_str());
    return 1;
  }
  std::printf("\nall audits green: bit-identical screening modes, pure pooled "
              "drains, zero metrics drift, flat RSS\n");
  return 0;
}
