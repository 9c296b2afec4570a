// Service load: closed-loop multi-client authentication, two transports.
//
// --transport pipe (default): a fleet of simulated devices is enrolled in
// parallel (stream-keyed, so the models are independent of the thread
// count), provisioned into a sharded lockstep ServiceEngine, and driven
// through enroll -> authenticate (-> revoke) session plans over
// FaultyTransport pairs injecting drops, duplicates, reorders, truncations
// and bit-flips. The bench is an end-to-end accounting audit as much as a
// load generator: it fails (non-zero exit) unless every session lands in
// exactly one terminal state, the frame conservation invariants hold, and
// the global net.* counters reconcile with the per-session outcome ledgers
// — zero drift, at any --threads.
//
// --transport socket: the same fleet runs over REAL nonblocking localhost
// TCP (or Unix-domain, --unix 1) sockets on the epoll event loop
// (net/async/service_engine.hpp), multiplexing >= 1000 concurrent
// connections. Three phases:
//   1. lockstep ORACLE — the clean-wire deterministic engine on the same
//      seed and workload, whose per-device ledgers and outcome fingerprint
//      the socket run must reproduce bit-for-bit;
//   2. socket STEADY — the event-loop run, reconciled device-by-device
//      against the oracle plus a byte-conservation and counter drift audit,
//      with p50/p99 session latency from the net.async.session_latency_ms
//      histogram;
//   3. OVERLOAD — a starved request queue (bounded, typed) must degrade
//      into retryable busy NACKs absorbed by client backoff: zero failed
//      sessions, nonzero net.async.request_overflow, never a silent drop.
//
// Both transports issue through the database's per-device stable-challenge
// pool by default (--pool-target N, 0 = live screening); the zero-drift
// audit additionally reconciles db.issue_requests against the per-handler
// batches_issued ledgers and requires at least one pool hit when enabled.
//
// Artifacts: bench_out/service_load_timing.json (pipe) or
// bench_out/service_socket_timing.json (socket; extra fields
// lockstep_seconds/socket_seconds/overload_seconds/p50_ms/p99_ms/
// reads_per_frame) and, with --metrics-out, the counter snapshot the
// schema checker validates (tools/check_metrics_schema.py --expect-net /
// --expect-net-socket).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "net/async/service_engine.hpp"
#include "net/service.hpp"
#include "puf/enrollment.hpp"

namespace {

/// The harness name decides the timing-artifact file, so the transport mode
/// must be known before the harness exists — a pre-parse, not a Cli lookup.
bool socket_mode_requested(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--transport") == 0 &&
        std::strcmp(argv[i + 1], "socket") == 0)
      return true;
  return false;
}

struct Workload {
  xpuf::sim::ChipPopulation pop;
  std::vector<xpuf::puf::ServerModel> models;
  std::uint32_t auth_sessions = 3;
};

template <typename Engine>
void provision_fleet(Engine& engine, const Workload& fleet,
                     std::size_t devices) {
  for (std::size_t i = 0; i < devices; ++i) {
    // Every 4th device also exercises the revocation path.
    engine.provision(fleet.pop.chip(i), fleet.models[i],
                     xpuf::sim::Environment::nominal(), fleet.auth_sessions,
                     /*enroll_first=*/true, /*revoke_at_end=*/i % 4 == 3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xpuf;
  const bool socket_mode = socket_mode_requested(argc, argv);
  benchutil::BenchHarness bench(
      argc, argv, socket_mode ? "service_socket" : "service_load",
      socket_mode ? "Service load: fleet auth over localhost sockets"
                  : "Service load: fleet auth over a faulty wire");
  const BenchScale& scale = bench.scale();
  MetricsRegistry::global().reset();

  // The socket mode's acceptance floor is 1000 concurrent connections, so
  // its default fleet is 1000 devices with lighter 2-PUF enrollment; the
  // pipe mode keeps the historical 4-PUF workload.
  const auto devices = static_cast<std::size_t>(bench.cli().get_int(
      "devices", socket_mode ? 1000 : (scale.full ? 256 : 24)));
  const auto auth_sessions = static_cast<std::uint32_t>(
      bench.cli().get_int("sessions", socket_mode ? 2 : 3));
  // Per-band fault probability; five bands, so the default injects ~5% of
  // frames with exactly one fault each (>= the 1% acceptance floor).
  const double fault_rate = bench.cli().get_double("fault-rate", 0.01);
  const bool unix_socket = bench.cli().get_int("unix", 0) != 0;
  const std::size_t n_pufs = socket_mode ? 2 : 4;

  constexpr std::uint64_t kSeed = 7411;
  puf::DatabaseConfig db_config;
  db_config.n_pufs = n_pufs;
  db_config.policy.challenge_count = socket_mode ? 8 : 16;
  // Issuance pooling (--pool-target 0 restores live screening). Pooled
  // batches are a pure per-device drain, so the lockstep oracle and the
  // socket engine still reconcile bit-for-bit; the audit below pins the
  // pooled path's accounting either way.
  const auto pool_target = static_cast<std::size_t>(
      bench.cli().get_int("pool-target", 4 * db_config.policy.challenge_count));
  db_config.pool.target = pool_target;

  // One fab lot for the whole fleet; small chips keep enrollment and
  // challenge selection minutes-scale at the full device count.
  sim::PopulationConfig pop_cfg;
  pop_cfg.n_chips = devices;
  pop_cfg.n_pufs_per_chip = n_pufs;
  pop_cfg.seed = 40917;

  puf::EnrollmentConfig enroll_cfg;
  enroll_cfg.training_challenges = socket_mode ? 600 : 1200;
  enroll_cfg.trials = socket_mode ? 800 : 2000;
  const puf::Enroller enroller(enroll_cfg);
  const puf::BetaFactors betas{0.9, 1.1};

  Workload fleet{sim::ChipPopulation(pop_cfg), {}, auth_sessions};

  // Parallel enrollment: chunk ownership over disjoint vector slots, one
  // private RNG stream per device — bit-identical at any thread count.
  std::printf("enrolling %zu devices (%zu-PUF chips, %zu training CRPs)...\n",
              devices, pop_cfg.n_pufs_per_chip, enroll_cfg.training_challenges);
  const StreamFamily enroll_family(Rng(9406).fork_base());
  fleet.models.resize(devices);
  parallel_for(devices, 1,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::size_t i = begin; i < end; ++i) {
                   Rng rng = enroll_family.stream(i);
                   fleet.models[i] = enroller.enroll(fleet.pop.chip(i), rng);
                   fleet.models[i].set_betas(betas);
                 }
               });

  std::vector<std::string> drift;
  auto& reg = MetricsRegistry::global();
  const auto expect = [&](const char* counter, std::uint64_t ledger) {
    const std::uint64_t value = reg.counter(counter).total();
    if (value != ledger)
      drift.push_back(std::string(counter) + ": counter=" +
                      std::to_string(value) + " ledger=" +
                      std::to_string(ledger));
  };

  if (!socket_mode) {
    net::ServiceConfig config;
    config.seed = kSeed;
    config.database = db_config;
    config.faults = net::FaultProfile::uniform(fault_rate);
    config.max_rounds = 8192;
    net::ServiceEngine engine(config);
    provision_fleet(engine, fleet, devices);

    const net::ServiceReport report = engine.run();
    bench.set_items(report.frames_sent);

    std::printf("\nrounds=%u devices=%llu sessions=%llu\n", report.rounds,
                static_cast<unsigned long long>(report.devices),
                static_cast<unsigned long long>(report.sessions_total));
    std::printf(
        "terminals: approved=%llu denied=%llu rejected=%llu failed=%llu "
        "(retries=%llu expired=%llu nacks=%llu revocations=%llu)\n",
        static_cast<unsigned long long>(report.approved),
        static_cast<unsigned long long>(report.denied),
        static_cast<unsigned long long>(report.rejected),
        static_cast<unsigned long long>(report.failed),
        static_cast<unsigned long long>(report.retries),
        static_cast<unsigned long long>(report.sessions_expired),
        static_cast<unsigned long long>(report.nacks_sent),
        static_cast<unsigned long long>(report.revocations));
    std::printf("wire: sent=%llu delivered=%llu corrupt=%llu | faults: "
                "drop=%llu dup=%llu reorder=%llu trunc=%llu flip=%llu\n",
                static_cast<unsigned long long>(report.frames_sent),
                static_cast<unsigned long long>(report.frames_delivered),
                static_cast<unsigned long long>(report.frames_corrupt),
                static_cast<unsigned long long>(report.faults.dropped),
                static_cast<unsigned long long>(report.faults.duplicated),
                static_cast<unsigned long long>(report.faults.reordered),
                static_cast<unsigned long long>(report.faults.truncated),
                static_cast<unsigned long long>(report.faults.bitflipped));
    std::printf("fingerprint: %016llx\n",
                static_cast<unsigned long long>(report.fingerprint));

    // --- zero-drift audit --------------------------------------------------
    drift.insert(drift.end(), report.violations.begin(),
                 report.violations.end());
    expect("net.session_approved", report.approved);
    expect("net.session_denied", report.denied);
    expect("net.session_rejected", report.rejected);
    expect("net.session_failed", report.failed);
    expect("net.sessions_opened", report.sessions_total);
    expect("net.retries", report.retries);
    expect("net.frames_sent", report.frames_sent);
    expect("net.frames_delivered", report.frames_delivered);
    expect("net.frames_corrupt", report.frames_corrupt);
    expect("net.frames_dropped", report.faults.dropped);
    expect("net.frames_duplicated", report.faults.duplicated);
    expect("net.frames_reordered", report.faults.reordered);
    expect("net.frames_truncated", report.faults.truncated);
    expect("net.frames_bitflipped", report.faults.bitflipped);
    expect("db.issue_requests", report.batches_issued);
    std::printf("issuance: batches=%llu pool_hits=%llu pool_misses=%llu "
                "refills=%llu\n",
                static_cast<unsigned long long>(report.batches_issued),
                static_cast<unsigned long long>(
                    reg.counter("auth.pool_hits").total()),
                static_cast<unsigned long long>(
                    reg.counter("auth.pool_misses").total()),
                static_cast<unsigned long long>(
                    reg.counter("auth.pool_refills").total()));
    if (pool_target > 0 && reg.counter("auth.pool_hits").total() == 0)
      drift.push_back("pooling enabled but every issue missed the pool");
    if (fault_rate > 0.0 && report.faults.faults() * 100 < report.faults.sent)
      drift.push_back("injected fault fraction fell below the 1% floor");
  } else {
    // --- phase 1: lockstep oracle (clean wire, same seed + workload) -------
    std::printf("\n[oracle] lockstep clean-wire run, %zu devices...\n",
                devices);
    Timer lockstep_timer;
    net::ServiceConfig oracle_config;
    oracle_config.seed = kSeed;
    oracle_config.database = db_config;
    oracle_config.max_rounds = 8192;
    net::ServiceEngine oracle(oracle_config);
    provision_fleet(oracle, fleet, devices);
    const net::ServiceReport oracle_report = oracle.run();
    const double lockstep_seconds = lockstep_timer.seconds();
    drift.insert(drift.end(), oracle_report.violations.begin(),
                 oracle_report.violations.end());

    // --- phase 2: socket steady state --------------------------------------
    std::printf("[socket] event-loop run over %s, %zu connections...\n",
                unix_socket ? "unix-domain sockets" : "localhost TCP",
                devices);
    MetricsRegistry::global().reset();
    Timer socket_timer;
    net::async::AsyncServiceConfig config;
    config.seed = kSeed;
    config.database = db_config;
    config.unix_socket = unix_socket;
    config.unix_path = "bench_async.sock";
    config.max_connections =
        devices + 64;  // accept overflow would fail provisioned clients
    config.request_queue_cap = devices * 8 + 1024;
    net::async::AsyncServiceEngine engine(config);
    provision_fleet(engine, fleet, devices);
    const net::async::AsyncServiceReport report = engine.run();
    const double socket_seconds = socket_timer.seconds();
    bench.set_items(report.frames_sent);
    drift.insert(drift.end(), report.violations.begin(),
                 report.violations.end());

    std::printf("\nticks=%llu connections=%llu sessions=%llu\n",
                static_cast<unsigned long long>(report.ticks),
                static_cast<unsigned long long>(report.connections_accepted),
                static_cast<unsigned long long>(report.sessions_total));
    std::printf(
        "terminals: approved=%llu denied=%llu rejected=%llu failed=%llu "
        "(retries=%llu expired=%llu nacks=%llu revocations=%llu)\n",
        static_cast<unsigned long long>(report.approved),
        static_cast<unsigned long long>(report.denied),
        static_cast<unsigned long long>(report.rejected),
        static_cast<unsigned long long>(report.failed),
        static_cast<unsigned long long>(report.retries),
        static_cast<unsigned long long>(report.sessions_expired),
        static_cast<unsigned long long>(report.nacks_sent),
        static_cast<unsigned long long>(report.revocations));
    std::printf("wire: sent=%llu delivered=%llu corrupt=%llu | bytes: "
                "read=%llu written=%llu resync=%llu\n",
                static_cast<unsigned long long>(report.frames_sent),
                static_cast<unsigned long long>(report.frames_delivered),
                static_cast<unsigned long long>(report.frames_corrupt),
                static_cast<unsigned long long>(report.bytes_read),
                static_cast<unsigned long long>(report.bytes_written),
                static_cast<unsigned long long>(
                    reg.counter("net.async.resync_bytes").total()));
    // One read per readable edge: each frame arrives whole in one short
    // read, so the ratio sits at 1 on a clean run.
    const std::uint64_t read_calls = reg.counter("net.async.read_calls").total();
    const double reads_per_frame =
        report.frames_delivered == 0
            ? 0.0
            : static_cast<double>(read_calls) /
                  static_cast<double>(report.frames_delivered);
    std::printf("reads: calls=%llu per delivered frame=%.3f\n",
                static_cast<unsigned long long>(read_calls), reads_per_frame);
    std::printf("fingerprint: %016llx (oracle %016llx)\n",
                static_cast<unsigned long long>(report.outcome_fingerprint),
                static_cast<unsigned long long>(
                    oracle_report.outcome_fingerprint));

    // --- oracle reconciliation ---------------------------------------------
    if (!report.all_finished)
      drift.push_back("socket run did not finish every session");
    if (report.outcome_fingerprint != oracle_report.outcome_fingerprint)
      drift.push_back("outcome fingerprint diverged from the lockstep oracle");
    if (report.connections_accepted < devices)
      drift.push_back("fewer connections accepted than devices provisioned");
    std::size_t mismatched_devices = 0;
    for (const std::uint64_t id : engine.device_ids()) {
      const auto& mine = engine.device_records(id);
      const auto& oracle_records = oracle.device_records(id);
      if (mine.size() != oracle_records.size()) {
        ++mismatched_devices;
        continue;
      }
      for (std::size_t s = 0; s < mine.size(); ++s) {
        // Retries are transport-variant by design; everything else in the
        // ledger must match the oracle exactly.
        if (mine[s].session_id != oracle_records[s].session_id ||
            mine[s].opened_with != oracle_records[s].opened_with ||
            mine[s].terminal != oracle_records[s].terminal ||
            mine[s].mismatches != oracle_records[s].mismatches ||
            mine[s].challenges_used != oracle_records[s].challenges_used) {
          ++mismatched_devices;
          break;
        }
      }
    }
    if (mismatched_devices > 0)
      drift.push_back(std::to_string(mismatched_devices) +
                      " device ledgers diverged from the lockstep oracle");

    // --- zero-drift audit (global counters vs the engine's ledgers) --------
    expect("net.session_approved", report.approved);
    expect("net.session_denied", report.denied);
    expect("net.session_rejected", report.rejected);
    expect("net.session_failed", report.failed);
    expect("net.sessions_opened", report.sessions_total);
    expect("net.retries", report.retries);
    expect("net.frames_sent", report.frames_sent);
    expect("net.frames_delivered", report.frames_delivered);
    expect("net.frames_corrupt", report.frames_corrupt);
    expect("net.async.bytes_read", report.bytes_read);
    expect("net.async.bytes_written", report.bytes_written);
    expect("net.async.connections_accepted", report.connections_accepted);
    expect("net.async.accept_overflow", report.accept_overflow);
    expect("net.async.request_overflow", report.request_overflow);
    // Teardown closes every accepted server conn and every client socket.
    expect("net.async.connections_closed",
           report.connections_accepted + devices);
    expect("net.async.resync_bytes", 0);    // TCP never corrupts localhost
    expect("net.async.write_overflow", 0);  // steady state never backlogs
    expect("db.issue_requests", report.batches_issued);
    std::printf("issuance: batches=%llu pool_hits=%llu pool_misses=%llu "
                "refills=%llu\n",
                static_cast<unsigned long long>(report.batches_issued),
                static_cast<unsigned long long>(
                    reg.counter("auth.pool_hits").total()),
                static_cast<unsigned long long>(
                    reg.counter("auth.pool_misses").total()),
                static_cast<unsigned long long>(
                    reg.counter("auth.pool_refills").total()));
    if (pool_target > 0 && reg.counter("auth.pool_hits").total() == 0)
      drift.push_back("pooling enabled but every issue missed the pool");
    if (report.bytes_read != report.bytes_written)
      drift.push_back("byte conservation failed: read " +
                      std::to_string(report.bytes_read) + " != written " +
                      std::to_string(report.bytes_written));
    const Histogram& latency = reg.histogram(
        "net.async.session_latency_ms",
        {0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
         500.0, 1000.0, 5000.0});
    if (latency.total() != report.sessions_total)
      drift.push_back("latency histogram holds " +
                      std::to_string(latency.total()) + " sessions, ledger " +
                      std::to_string(report.sessions_total));
    const double p50 = latency.quantile(0.5);
    const double p99 = latency.quantile(0.99);
    std::printf("latency: p50=%.3f ms p99=%.3f ms (%llu sessions)\n", p50, p99,
                static_cast<unsigned long long>(latency.total()));

    // --- phase 3: overload — typed backpressure, no silent drops -----------
    const auto overload_devices = std::min<std::size_t>(devices, 64);
    std::printf("\n[overload] starved queue, %zu devices...\n",
                overload_devices);
    Timer overload_timer;
    net::async::AsyncServiceConfig overload_config;
    overload_config.seed = kSeed;
    overload_config.database = db_config;
    overload_config.unix_socket = unix_socket;
    overload_config.unix_path = "bench_async.sock";
    overload_config.request_queue_cap = 2;
    overload_config.serve_budget_per_poll = 2;
    overload_config.client_max_retries = 40;
    net::async::AsyncServiceEngine overload_engine(overload_config);
    provision_fleet(overload_engine, fleet, overload_devices);
    const net::async::AsyncServiceReport overload_report =
        overload_engine.run();
    const double overload_seconds = overload_timer.seconds();
    drift.insert(drift.end(), overload_report.violations.begin(),
                 overload_report.violations.end());
    std::printf("overload: busy_nacks=%llu request_overflow=%llu "
                "retries=%llu failed=%llu timers_fired=%llu\n",
                static_cast<unsigned long long>(overload_report.busy_nacks),
                static_cast<unsigned long long>(
                    overload_report.request_overflow),
                static_cast<unsigned long long>(overload_report.retries),
                static_cast<unsigned long long>(overload_report.failed),
                static_cast<unsigned long long>(
                    reg.counter("net.async.timers_fired").total()));
    if (!overload_report.all_finished)
      drift.push_back("overload run did not finish every session");
    if (overload_report.request_overflow == 0)
      drift.push_back("overload produced no request-queue overflow — the "
                      "backpressure path went unexercised");
    if (overload_report.failed != 0)
      drift.push_back("overload failed sessions: backpressure must degrade "
                      "into retries, never terminal failures");
    if (overload_report.busy_nacks <
        overload_report.request_overflow + overload_report.accept_overflow)
      drift.push_back("busy NACKs under-count the queue overflows");
    if (reg.counter("net.async.timers_fired").total() == 0)
      drift.push_back("no timers fired under overload — retry deadlines "
                      "cannot have been armed");

    bench.set_field("connections", static_cast<double>(devices));
    bench.set_field("lockstep_seconds", lockstep_seconds);
    bench.set_field("socket_seconds", socket_seconds);
    bench.set_field("overload_seconds", overload_seconds);
    bench.set_field("p50_ms", p50);
    bench.set_field("p99_ms", p99);
    bench.set_field("reads_per_frame", reads_per_frame);
  }

  if (!drift.empty()) {
    std::printf("\nACCOUNTING DRIFT (%zu):\n", drift.size());
    for (const auto& v : drift) std::printf("  %s\n", v.c_str());
    return 1;
  }
  std::printf("\nzero accounting drift: every session terminal, counters "
              "reconcile with ledgers\n");
  return 0;
}
