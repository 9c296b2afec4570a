// Lockstep driver of the authentication service engine (engine_core.hpp).
//
// ServiceEngine drives the whole fleet in deterministic rounds over
// in-process pipe pairs decorated by FaultyTransport: each round, every
// shard of the core's FIXED grid (independent of the worker thread count,
// the chunk-ownership discipline of common/parallel.hpp) advances its
// clients, serves its inbound frames, and ticks its transports. A round is
// the driver's tick. Everything a round touches is a pure function of the
// config seed and the shard-local event order — fault schedules per
// (connection, direction), issuance per (device, session), measurement
// noise per device, sharded atomic counters — and racy gauges are
// overwritten serially in finalize(), so a run is bit-identical at 1, 2, or
// 8 worker threads.
//
// A hostile transport produces typed NACKs, bounded client retries with
// exponential backoff, and server-side session TTL expiry — never a crash
// and never a silent accept. On a clean wire this engine is the
// deterministic ORACLE the socket driver (async/service_engine.hpp)
// reconciles its outcomes against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/engine_core.hpp"
#include "net/session.hpp"
#include "net/transport.hpp"
#include "puf/database.hpp"
#include "sim/chip.hpp"

namespace xpuf::net {

/// Session TTL, busy-NACK retry and client retry policy are the
/// ServerPolicy{} and ClientPolicy{} defaults, sized for rounds.
struct ServiceConfig {
  /// Fixed shard grid — deliberately NOT the thread count (determinism).
  std::uint32_t shards = 8;
  /// Round budget; hitting it with live sessions is reported as a violation.
  std::uint32_t max_rounds = 4096;
  std::uint64_t seed = 2017;
  puf::DatabaseConfig database;
  /// Applied to BOTH directions of every connection, stream-keyed.
  FaultProfile faults;
};

/// EngineReport plus the lockstep driver's rounds, fault tallies and
/// whole-run digest.
struct ServiceReport : EngineReport {
  std::uint32_t rounds = 0;
  bool all_idle = false;
  FaultTally faults;  ///< summed over every FaultyTransport
  /// Order-independent digest of every session outcome, retry count and
  /// frame tally; equal fingerprints across thread counts prove
  /// bit-identical runs.
  std::uint64_t fingerprint = 0;
};

class ServiceEngine {
 public:
  explicit ServiceEngine(ServiceConfig config);
  ~ServiceEngine();

  ServiceEngine(const ServiceEngine&) = delete;
  ServiceEngine& operator=(const ServiceEngine&) = delete;

  const ServiceConfig& config() const { return config_; }
  std::uint64_t device_count() const { return core_.device_count(); }

  /// Registers one device: the physical chip (client side), its enrolled
  /// server model (activated on ENROLL_BEGIN), and the scripted session
  /// plan. Must be called before run(); the device lands on shard
  /// `chip.id() % shards`.
  void provision(const sim::XorPufChip& chip, puf::ServerModel model,
                 const sim::Environment& env, std::uint32_t auth_sessions,
                 bool enroll_first = true, bool revoke_at_end = false);

  /// Drives rounds until every client finished and every transport is idle
  /// (or max_rounds), then reconciles. Runs shards under the global pool.
  ServiceReport run();

  /// Per-session outcome ledger of one provisioned device.
  const std::vector<SessionRecord>& device_records(std::uint64_t device_id) const;

 private:
  struct Connection;

  void step_shard(std::size_t shard_index, std::uint32_t round);
  void serve(Connection& conn, std::uint32_t round);
  ServiceReport finalize(std::uint32_t rounds, bool all_finished,
                         bool all_idle);

  ServiceConfig config_;
  EngineCore core_;
  /// The connections of each core shard, in provisioning order.
  std::vector<std::vector<std::unique_ptr<Connection>>> lanes_;
  std::map<std::uint64_t, const Connection*> connections_;
};

}  // namespace xpuf::net
