#include "net/service.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace xpuf::net {

namespace {

// StreamFamily key of a connection's fault stream; the two directions of one
// connection land on decorrelated streams.
std::uint64_t fault_key(std::uint64_t device_id, bool server_side) {
  return device_id * 2 + (server_side ? 1 : 0);
}

}  // namespace

struct ServiceEngine::Connection {
  Connection(const sim::XorPufChip& chip, const sim::Environment& env,
             Rng measure_rng, const FaultProfile& faults,
             const StreamFamily& fault_family, ServerSessionHandler& handler_in,
             std::uint32_t auth_sessions, bool enroll_first,
             bool revoke_at_end)
      : device_id(chip.id()),
        client_tx(c2s_pipe, faults, fault_family,
                  fault_key(chip.id(), /*server_side=*/false)),
        server_tx(s2c_pipe, faults, fault_family,
                  fault_key(chip.id(), /*server_side=*/true)),
        client(chip, env, measure_rng, client_tx, s2c_pipe, auth_sessions,
               ClientPolicy{}, enroll_first, revoke_at_end),
        handler(&handler_in) {}

  std::uint64_t device_id;
  PipeTransport c2s_pipe;  ///< client -> server frames land here
  PipeTransport s2c_pipe;  ///< server -> client frames land here
  FaultyTransport client_tx;
  FaultyTransport server_tx;
  DeviceClient client;
  ServerSessionHandler* handler;
  ChannelStats server_stats;
  std::uint32_t server_seq = 0;

  bool idle() const {
    return client_tx.idle() && server_tx.idle() && c2s_pipe.idle() &&
           s2c_pipe.idle();
  }
};

ServiceEngine::ServiceEngine(ServiceConfig config)
    : config_(config),
      core_(config.shards, config.seed, config.database, ServerPolicy{}),
      lanes_(config.shards) {}

ServiceEngine::~ServiceEngine() = default;

void ServiceEngine::provision(const sim::XorPufChip& chip,
                              puf::ServerModel model,
                              const sim::Environment& env,
                              std::uint32_t auth_sessions, bool enroll_first,
                              bool revoke_at_end) {
  const auto device_id = static_cast<std::uint64_t>(chip.id());
  ServerSessionHandler& handler =
      core_.provision(chip, std::move(model), enroll_first);
  auto& lane = lanes_[core_.shard_of(device_id)];
  lane.push_back(std::make_unique<Connection>(
      chip, env, core_.measure_stream(device_id), config_.faults,
      core_.fault_family(), handler, auth_sessions, enroll_first,
      revoke_at_end));
  core_.attach_client(device_id, lane.back()->client);
  connections_.emplace(device_id, lane.back().get());
}

const std::vector<SessionRecord>& ServiceEngine::device_records(
    std::uint64_t device_id) const {
  return core_.records(device_id);
}

ServiceReport ServiceEngine::run() {
  XPUF_TRACE_SPAN("net.service_run");
  XPUF_REQUIRE(core_.device_count() > 0,
               "run() needs at least one provisioned device");
  std::uint32_t round = 0;
  bool all_finished = false;
  bool all_idle = false;
  for (; round < config_.max_rounds; ++round) {
    // Serial quiescence check between rounds: finished clients may still owe
    // the wire duplicated or held frames, so both conditions must hold.
    all_finished = true;
    all_idle = true;
    for (const auto& lane : lanes_)
      for (const auto& conn : lane) {
        all_finished = all_finished && conn->client.finished();
        all_idle = all_idle && conn->idle();
      }
    if (all_finished && all_idle) break;
    parallel_for(lanes_.size(), 1,
                 [&](std::size_t begin, std::size_t end, std::size_t) {
                   for (std::size_t s = begin; s < end; ++s)
                     step_shard(s, round);
                 });
  }
  return finalize(round, all_finished, all_idle);
}

void ServiceEngine::step_shard(std::size_t shard_index, std::uint32_t round) {
  for (auto& conn : lanes_[shard_index]) {
    conn->client.step(round);
    serve(*conn, round);
    conn->client_tx.tick();
    conn->server_tx.tick();
  }
}

void ServiceEngine::serve(Connection& conn, std::uint32_t round) {
  static Counter& ignored =
      MetricsRegistry::global().counter("net.frames_ignored");
  conn.handler->expire_if_due(round);
  TransportSink sink(conn.server_tx, conn.server_stats, conn.server_seq,
                     conn.device_id);
  while (auto frame = recv_frame(conn.c2s_pipe, conn.server_stats)) {
    if (frame->header.device_id != conn.device_id) {
      ignored.add(1);  // cannot happen on a per-device pipe; counted anyway
      continue;
    }
    conn.handler->handle(*frame, round, sink);
  }
}

ServiceReport ServiceEngine::finalize(std::uint32_t rounds, bool all_finished,
                                      bool all_idle) {
  ServiceReport report;
  report.rounds = rounds;
  report.all_finished = all_finished;
  report.all_idle = all_idle;
  if (!all_finished)
    report.violations.push_back("round budget exhausted with live sessions");
  if (!all_idle)
    report.violations.push_back("round budget exhausted with frames in flight");
  report.fingerprint = core_.reconcile(
      report, [&](std::uint64_t device_id, const DeviceClient& client,
                  const ServerLedger& ledger, std::uint64_t& h) {
        const Connection& conn = *connections_.at(device_id);
        const std::string device = "device " + std::to_string(device_id);
        // Frame conservation per direction (exact once the wire is idle):
        //   delivered + dropped == sent + duplicated
        //   corrupt == truncated + bitflipped (single fault per frame)
        const FaultTally& up = conn.client_tx.tally();
        const FaultTally& down = conn.server_tx.tally();
        const ChannelStats& client_stats = client.channel_stats();
        const ChannelStats& server_stats = conn.server_stats;
        if (all_idle) {
          if (server_stats.delivered + up.dropped != up.sent + up.duplicated)
            report.violations.push_back(device +
                                        ": uplink frame conservation broken");
          if (client_stats.delivered + down.dropped !=
              down.sent + down.duplicated)
            report.violations.push_back(
                device + ": downlink frame conservation broken");
          if (server_stats.corrupt != up.truncated + up.bitflipped)
            report.violations.push_back(
                device + ": uplink corruption accounting broken");
          if (client_stats.corrupt != down.truncated + down.bitflipped)
            report.violations.push_back(
                device + ": downlink corruption accounting broken");
        }
        if (client_stats.sent != up.sent || server_stats.sent != down.sent)
          report.violations.push_back(device +
                                      ": endpoint/wire sent counts disagree");
        // Every server->client frame of a connection is a handler reply.
        if (server_stats.sent != ledger.replies_sent)
          report.violations.push_back(
              device + ": server sent " + std::to_string(server_stats.sent) +
              " frames, handler replied " +
              std::to_string(ledger.replies_sent));
        report.frames_sent += server_stats.sent;
        report.frames_delivered += server_stats.delivered;
        report.frames_corrupt += server_stats.corrupt;
        report.faults.sent += up.sent + down.sent;
        report.faults.dropped += up.dropped + down.dropped;
        report.faults.duplicated += up.duplicated + down.duplicated;
        report.faults.reordered += up.reordered + down.reordered;
        report.faults.truncated += up.truncated + down.truncated;
        report.faults.bitflipped += up.bitflipped + down.bitflipped;
        mix(h, client_stats.sent);
        mix(h, client_stats.delivered);
        mix(h, client_stats.corrupt);
        mix(h, server_stats.sent);
        mix(h, server_stats.delivered);
        mix(h, server_stats.corrupt);
      });

  // Gauges are last-writer-wins and therefore racy during the parallel run;
  // overwrite them serially here so snapshots compare bit-identically.
  auto& registry = MetricsRegistry::global();
  registry.gauge("db.ledger_size")
      .set(static_cast<double>(core_.ledger_entries()));
  registry.gauge("net.devices").set(static_cast<double>(report.devices));
  registry.gauge("net.rounds").set(static_cast<double>(report.rounds));
  return report;
}

}  // namespace xpuf::net
