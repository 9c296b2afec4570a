// Tests for the service engine (net/service.hpp): clean-wire end-to-end
// enroll -> authenticate -> revoke flows, graceful degradation under a
// hostile transport (every session in exactly one terminal state, never a
// crash or silent accept), zero accounting drift, and bit-identical runs at
// 1, 2, and 8 worker threads over the fixed shard grid.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "net/async/service_engine.hpp"
#include "net/service.hpp"
#include "puf/enrollment.hpp"
#include "sim/population.hpp"

namespace xpuf::net {
namespace {

constexpr std::size_t kThreadGrid[] = {1, 2, 8};

struct Fleet {
  sim::ChipPopulation pop;
  std::vector<puf::ServerModel> models;
};

Fleet make_fleet(std::size_t devices) {
  sim::PopulationConfig cfg;
  cfg.n_chips = devices;
  cfg.n_pufs_per_chip = 3;
  cfg.seed = 5150;
  Fleet fleet{sim::ChipPopulation(cfg), {}};
  puf::EnrollmentConfig ecfg;
  ecfg.training_challenges = 1'200;
  ecfg.trials = 2'000;
  const puf::Enroller enroller(ecfg);
  Rng rng(808);
  for (std::size_t i = 0; i < devices; ++i) {
    puf::ServerModel m = enroller.enroll(fleet.pop.chip(i), rng);
    m.set_betas(puf::BetaFactors{0.85, 1.15});
    fleet.models.push_back(std::move(m));
  }
  return fleet;
}

ServiceConfig base_config() {
  ServiceConfig config;
  config.seed = 1701;
  config.database.n_pufs = 3;
  config.database.policy.challenge_count = 16;
  return config;
}

std::unique_ptr<ServiceEngine> make_engine(Fleet& fleet,
                                           const ServiceConfig& config,
                                           std::uint32_t auth_sessions) {
  auto engine = std::make_unique<ServiceEngine>(config);
  for (std::size_t i = 0; i < fleet.pop.size(); ++i)
    engine->provision(fleet.pop.chip(i), fleet.models[i],
                      sim::Environment::nominal(), auth_sessions,
                      /*enroll_first=*/true, /*revoke_at_end=*/i % 3 == 2);
  return engine;
}

ServiceReport run_fleet(Fleet& fleet, const ServiceConfig& config,
                        std::uint32_t auth_sessions) {
  return make_engine(fleet, config, auth_sessions)->run();
}

TEST(ServiceEngine, CleanWireFullFlowApprovesEverySession) {
  Fleet fleet = make_fleet(6);
  MetricsRegistry::global().reset();
  const std::unique_ptr<ServiceEngine> engine =
      make_engine(fleet, base_config(), 2);
  const ServiceReport report = engine->run();
  EXPECT_TRUE(report.reconciled()) << (report.violations.empty()
                                           ? ""
                                           : report.violations.front());
  EXPECT_TRUE(report.all_idle);
  EXPECT_EQ(report.devices, 6u);
  // 6 devices x (1 enroll + 2 auth) + 2 revokes (devices 2 and 5).
  EXPECT_EQ(report.sessions_total, 20u);
  EXPECT_EQ(report.approved, report.sessions_total)
      << "a clean wire and honest chips must approve everything";
  EXPECT_EQ(report.denied + report.rejected + report.failed, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.frames_corrupt, 0u);
  EXPECT_EQ(report.faults.faults(), 0u);
  EXPECT_EQ(report.enroll_activated, 6u);
  EXPECT_EQ(report.revocations, 2u);
  // A clean wire never delivers duplicate or out-of-session frames, so the
  // ignored-frame ledger stays at zero.
  EXPECT_EQ(
      MetricsRegistry::global().snapshot().counters.at("net.frames_ignored"),
      0u);

  // Per-device ledgers: session ids are dense from 1, plans in order.
  const auto& records = engine->device_records(2);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().opened_with, FrameType::kEnrollBegin);
  EXPECT_EQ(records.back().opened_with, FrameType::kRevoke);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].session_id, i + 1);
    EXPECT_EQ(records[i].terminal, SessionPhase::kApproved);
    EXPECT_EQ(records[i].mismatches, 0u);
  }
}

TEST(ServiceEngine, FaultyWireEverySessionReachesExactlyOneTerminal) {
  Fleet fleet = make_fleet(8);
  ServiceConfig config = base_config();
  config.faults = FaultProfile::uniform(0.08);  // 40% of frames faulted
  MetricsRegistry::global().reset();
  const ServiceReport report = run_fleet(fleet, config, 3);
  for (const auto& violation : report.violations) ADD_FAILURE() << violation;
  EXPECT_TRUE(report.all_finished);
  EXPECT_TRUE(report.all_idle);
  // The partition invariant: terminals are exhaustive and exclusive.
  EXPECT_EQ(report.approved + report.denied + report.rejected + report.failed,
            report.sessions_total);
  EXPECT_GT(report.faults.faults(), 0u);
  EXPECT_GT(report.retries, 0u) << "a 40% fault rate must force retries";
  // No silent accepts: approvals never exceed the scripted plan.
  EXPECT_LE(report.approved, report.sessions_total);
}

TEST(ServiceEngine, FaultyRunIsBitIdenticalAcrossWorkerThreads) {
  Fleet fleet = make_fleet(10);
  ServiceConfig config = base_config();
  config.faults = FaultProfile::uniform(0.05);
  std::uint64_t first_fingerprint = 0;
  std::string first_snapshot;
  for (const std::size_t threads : kThreadGrid) {
    ThreadPool::set_global_threads(threads);
    MetricsRegistry::global().reset();
    const ServiceReport report = run_fleet(fleet, config, 3);
    for (const auto& violation : report.violations)
      ADD_FAILURE() << "threads=" << threads << ": " << violation;
    const std::string snapshot = MetricsRegistry::global().snapshot().to_json(
        "service", 0, /*include_timing=*/false);
    if (first_fingerprint == 0) {
      first_fingerprint = report.fingerprint;
      first_snapshot = snapshot;
    } else {
      EXPECT_EQ(report.fingerprint, first_fingerprint)
          << "fingerprint diverged at threads=" << threads;
      EXPECT_EQ(snapshot, first_snapshot)
          << "metrics snapshot diverged at threads=" << threads;
    }
  }
  ThreadPool::set_global_threads(0);
}

TEST(ServiceEngine, GlobalCountersReconcileWithTheReport) {
  Fleet fleet = make_fleet(5);
  ServiceConfig config = base_config();
  config.faults = FaultProfile::uniform(0.04);
  MetricsRegistry::global().reset();
  const ServiceReport report = run_fleet(fleet, config, 2);
  for (const auto& violation : report.violations) ADD_FAILURE() << violation;
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("net.sessions_opened"), report.sessions_total);
  EXPECT_EQ(snap.counters.at("net.session_approved"), report.approved);
  EXPECT_EQ(snap.counters.at("net.session_denied"), report.denied);
  EXPECT_EQ(snap.counters.at("net.session_rejected"), report.rejected);
  EXPECT_EQ(snap.counters.at("net.session_failed"), report.failed);
  EXPECT_EQ(snap.counters.at("net.retries"), report.retries);
  EXPECT_EQ(snap.counters.at("net.frames_sent"), report.frames_sent);
  EXPECT_EQ(snap.counters.at("net.frames_delivered"), report.frames_delivered);
  EXPECT_EQ(snap.counters.at("net.frames_corrupt"), report.frames_corrupt);
  EXPECT_EQ(snap.counters.at("net.frames_dropped"), report.faults.dropped);
  EXPECT_EQ(snap.counters.at("net.frames_duplicated"),
            report.faults.duplicated);
  EXPECT_EQ(snap.counters.at("net.frames_truncated"), report.faults.truncated);
  EXPECT_EQ(snap.counters.at("net.frames_bitflipped"),
            report.faults.bitflipped);
  // The report sums the handlers' own ledgers; the process-wide counters
  // count the same server events independently (absent until first used).
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter("net.sessions_expired"), report.sessions_expired);
  EXPECT_EQ(counter("net.nacks_sent"), report.nacks_sent);
  EXPECT_EQ(counter("net.enroll_activated"), report.enroll_activated);
  EXPECT_EQ(counter("net.revocations"), report.revocations);
  EXPECT_EQ(report.enroll_activated, 5u);
  // Duplicated frames land in the ignored ledger: a faulted wire must move
  // it, and it can never exceed what was actually delivered.
  EXPECT_GT(snap.counters.at("net.frames_ignored"), 0u);
  EXPECT_LT(snap.counters.at("net.frames_ignored"),
            snap.counters.at("net.frames_delivered"));
  // Revocation removes a device's replay ledger, so the live ledger size
  // trails the issue counter by exactly the revoked devices' issues.
  EXPECT_GT(snap.gauges.at("db.ledger_size"), 0.0);
  EXPECT_LT(snap.gauges.at("db.ledger_size"),
            static_cast<double>(snap.counters.at("db.challenges_issued")));
  EXPECT_EQ(snap.gauges.at("net.devices"), 5.0);
}

// Digests of the faulty-wire fleet and of the socket engine on the same
// plan, recorded from a reference run. Any change to issuance, measurement,
// fault schedules, session decisions or the digest formula moves them.
TEST(ServiceEngine, FingerprintsMatchTheRecordedRun) {
  Fleet fleet = make_fleet(8);
  ServiceConfig config = base_config();
  config.faults = FaultProfile::uniform(0.08);
  const ServiceReport faulty = run_fleet(fleet, config, 3);
  EXPECT_EQ(faulty.fingerprint, 0x0fc9507518a453b7ULL);
  EXPECT_EQ(faulty.outcome_fingerprint, 0xb440fed34ce60605ULL);

  async::AsyncServiceConfig socket_config;
  socket_config.seed = config.seed;
  socket_config.database = config.database;
  async::AsyncServiceEngine engine(socket_config);
  for (std::size_t i = 0; i < fleet.pop.size(); ++i)
    engine.provision(fleet.pop.chip(i), fleet.models[i],
                     sim::Environment::nominal(), 3,
                     /*enroll_first=*/true, /*revoke_at_end=*/i % 3 == 2);
  const async::AsyncServiceReport socket = engine.run();
  for (const auto& violation : socket.violations) ADD_FAILURE() << violation;
  EXPECT_EQ(socket.outcome_fingerprint, 0xb440fed34ce60605ULL);
  EXPECT_EQ(socket.outcome_fingerprint,
            run_fleet(fleet, base_config(), 3).outcome_fingerprint)
      << "the clean-wire lockstep run is the socket engine's oracle";
}

TEST(ServiceEngine, ConfigPreconditionsAreEnforced) {
  ServiceConfig config = base_config();
  config.shards = 0;
  EXPECT_THROW(ServiceEngine{config}, std::invalid_argument);
  config = base_config();
  ServiceEngine engine(config);
  EXPECT_THROW(engine.run(), std::invalid_argument)
      << "run() without provisioned devices is a caller bug";
  EXPECT_THROW(engine.device_records(1), std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::net
