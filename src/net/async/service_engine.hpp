// Epoll driver of the authentication service engine (net/engine_core.hpp).
//
// AsyncServiceEngine serves the SAME protocol as the lockstep ServiceEngine
// through the same EngineCore, but multiplexes the whole fleet over
// nonblocking TCP (or Unix-domain) sockets on one epoll event loop, with a
// timer wheel driving client retransmit deadlines and server session TTLs
// in 1 ms clock ticks. This driver owns the sockets, the acceptor, the
// request queue and the timer wheel.
//
// Reconciliation contract (see DESIGN.md §Async socket service): per-device
// session OUTCOMES are a pure function of (seed, plan) — issuance is
// (device, session)-keyed, measurement noise is consumed per device in
// session order, TCP preserves per-connection order, and busy NACKs only add
// retries. The lockstep engine on a fault-free FaultProfile{} is therefore a
// bit-exact oracle for outcome_fingerprint and per-device records;
// wall-clock quantities (retries, latency) are reported outside the digest.
//
// Backpressure is typed end to end: accept overflow (max_connections) and
// request-queue overflow (request_queue_cap) answer with busy NACKs, and a
// capped write buffer fails its transport, each counted. Nothing is ever
// silently dropped. Single-threaded: one loop, one lane.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/async/acceptor.hpp"
#include "net/async/clock.hpp"
#include "net/async/event_loop.hpp"
#include "net/async/socket_transport.hpp"
#include "net/engine_core.hpp"
#include "net/session.hpp"
#include "puf/database.hpp"
#include "sim/chip.hpp"

namespace xpuf::net::async {

struct AsyncServiceConfig {
  /// Unix-domain sockets instead of localhost TCP.
  bool unix_socket = false;
  std::string unix_path = "xpuf_async.sock";

  /// Server database shards (device_id % shards), same grid as lockstep.
  std::uint32_t shards = 8;

  /// Admission caps — the typed-backpressure surface.
  std::size_t max_connections = 4096;   ///< accept overflow -> busy NACK
  std::size_t request_queue_cap = 4096; ///< enqueue overflow -> busy NACK
  std::size_t serve_budget_per_poll = 1024;

  /// Clock domain: 1 ms wall-clock ticks. The TTL/timeout knobs below are
  /// in ticks, NOT lockstep rounds — see ClientPolicy (net/session.hpp) for
  /// why the domains need different sizes.
  std::uint64_t session_ttl_ticks = 2000;
  std::uint16_t busy_retry_ticks = 2;
  std::uint32_t client_timeout_ticks = 400;
  std::uint32_t client_max_retries = 6;

  std::uint64_t seed = 2017;
  puf::DatabaseConfig database;
};

/// EngineReport plus the epoll driver's ticks, byte totals and admission
/// counts. busy_nacks also counts the driver's queue overflows; the
/// transport-variant fields sit outside outcome_fingerprint.
struct AsyncServiceReport : EngineReport {
  std::uint64_t ticks = 0;  ///< clock ticks the run consumed

  std::uint64_t connections_accepted = 0;
  std::uint64_t accept_overflow = 0;   ///< busy-NACKed at the listener
  std::uint64_t request_overflow = 0;  ///< busy-NACKed at the request queue

  /// Byte-conservation audit: syscall-layer deltas over the run; equal at
  /// quiescence on a loopback transport.
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

class AsyncServiceEngine {
 public:
  explicit AsyncServiceEngine(AsyncServiceConfig config);
  ~AsyncServiceEngine();

  AsyncServiceEngine(const AsyncServiceEngine&) = delete;
  AsyncServiceEngine& operator=(const AsyncServiceEngine&) = delete;

  const AsyncServiceConfig& config() const { return config_; }
  std::uint64_t device_count() const { return core_.device_count(); }

  /// Same contract as ServiceEngine::provision — chip + enrolled model +
  /// scripted plan; must be called before run(). The chip must outlive the
  /// engine.
  void provision(const sim::XorPufChip& chip, puf::ServerModel model,
                 const sim::Environment& env, std::uint32_t auth_sessions,
                 bool enroll_first = true, bool revoke_at_end = false);

  /// Binds the listener, connects the fleet, and drives the event loop until
  /// every client finished and the wire is quiescent (or the tick budget
  /// runs out), then reconciles ledgers.
  AsyncServiceReport run();

  /// Per-session outcome ledger of one device (valid after run()).
  const std::vector<SessionRecord>& device_records(std::uint64_t device_id) const;
  /// Provisioned ids in ascending order — the oracle-reconciliation walk.
  std::vector<std::uint64_t> device_ids() const { return core_.device_ids(); }

 private:
  struct ClientConn;
  struct ServerConn;
  struct AcceptorHandler;
  struct QueuedRequest {
    std::uint64_t conn_id = 0;
    Frame frame;
  };

  bool setup_listener();
  void start_connects();
  void on_acceptor_ready();
  bool admit(Fd& fd);
  void on_client_ready(std::size_t index, bool readable, bool writable,
                       bool hangup);
  void on_server_ready(std::uint64_t conn_id, bool readable, bool writable,
                       bool hangup);
  void step_client(std::size_t index);
  /// Counts a client out of the quiescence wait, once: it finished its
  /// plan, its transport failed, or (with `failure`) it never connected.
  void retire(ClientConn& conn, const char* failure);
  void enqueue_request(ServerConn& conn, Frame frame);
  void serve_queue();
  void on_timer(std::uint64_t key, std::uint64_t now);
  void arm_client_timer(std::size_t index);
  void arm_ttl_timer(std::uint64_t device_id);
  void close_server_conn(std::uint64_t conn_id);
  bool quiescent() const;
  void observe_latency(std::uint64_t ticks_elapsed);
  AsyncServiceReport finalize(bool all_finished);

  AsyncServiceConfig config_;
  EngineCore core_;
  /// Last TTL deadline armed per device (lazy-cancel: a fired timer re-arms
  /// off ttl_deadline() if the session moved).
  std::map<std::uint64_t, std::uint64_t> armed_ttl_;

  WallClock clock_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<Acceptor> acceptor_;
  std::unique_ptr<EventHandler> acceptor_handler_;
  std::uint16_t port_ = 0;

  std::vector<std::unique_ptr<ClientConn>> clients_;
  std::size_t next_connect_ = 0;   ///< first client not yet initiated
  std::size_t finished_clients_ = 0;

  std::map<std::uint64_t, std::unique_ptr<ServerConn>> server_conns_;
  std::size_t live_server_conns_ = 0;
  std::uint64_t next_conn_id_ = 0;
  std::deque<QueuedRequest> request_queue_;

  // Engine-level ledger (plain ints: one lane).
  std::uint64_t request_overflow_ = 0;
  std::uint64_t unknown_device_nacks_ = 0;
  std::vector<std::string> connect_failures_;
};

}  // namespace xpuf::net::async
