#include "net/async/service_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace xpuf::net::async {

namespace {

// Timer-key tags in the top two bits; the payload identifies the client
// slot or the device.
constexpr std::uint64_t kTagMask = 3ull << 62;
constexpr std::uint64_t kClientTag = 1ull << 62;
constexpr std::uint64_t kTtlTag = 2ull << 62;
constexpr std::uint32_t kNoDeadline = 0xffffffffu;

/// Wall time of one clock tick.
constexpr double kTickSeconds = 1e-3;
/// Run budget; hitting it with live sessions is reported as a violation.
constexpr std::uint64_t kMaxTicks = 120000;
/// New client sockets initiated per loop iteration (connect-flood shaping).
constexpr std::size_t kConnectBatch = 128;

void conns_closed_add() {
  static Counter& conns_closed =
      MetricsRegistry::global().counter("net.async.connections_closed");
  conns_closed.add();
}

Histogram& latency_histogram() {
  static Histogram& h = MetricsRegistry::global().histogram(
      "net.async.session_latency_ms",
      {0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
       500.0, 1000.0, 5000.0});
  return h;
}

}  // namespace

/// One device's client endpoint: socket, transport, protocol driver, and the
/// latency observer wiring.
struct AsyncServiceEngine::ClientConn final : public EventHandler,
                                             public SessionObserver {
  ClientConn(AsyncServiceEngine& engine_in, std::size_t index_in,
             const sim::XorPufChip& chip_in, const sim::Environment& env_in,
             Rng measure_rng_in, std::uint32_t auth_sessions_in,
             bool enroll_first_in, bool revoke_at_end_in)
      : engine(&engine_in),
        index(index_in),
        chip(&chip_in),
        env(env_in),
        measure_rng(measure_rng_in),
        auth_sessions(auth_sessions_in),
        enroll_first(enroll_first_in),
        revoke_at_end(revoke_at_end_in) {}

  /// Binds the (connect-initiated) socket and builds the protocol driver.
  void attach(Fd fd, const ClientPolicy& policy, bool already_connected) {
    transport = std::make_unique<SocketTransport>(std::move(fd));
    client = std::make_unique<DeviceClient>(*chip, env, measure_rng,
                                            *transport, *transport,
                                            auth_sessions, policy,
                                            enroll_first, revoke_at_end);
    client->set_observer(this);
    connected = already_connected;
  }

  void on_ready(bool readable, bool writable, bool hangup) override {
    engine->on_client_ready(index, readable, writable, hangup);
  }

  void on_session_opened(std::uint32_t, std::uint32_t round) override {
    open_tick = round;
  }
  void on_session_terminal(const SessionRecord&, std::uint32_t round) override {
    engine->observe_latency(round >= open_tick ? round - open_tick : 0);
  }

  AsyncServiceEngine* engine;
  std::size_t index;
  const sim::XorPufChip* chip;
  sim::Environment env;
  Rng measure_rng;
  std::uint32_t auth_sessions;
  bool enroll_first;
  bool revoke_at_end;

  std::unique_ptr<SocketTransport> transport;
  std::unique_ptr<DeviceClient> client;
  bool connected = false;
  bool counted_finished = false;
  std::uint32_t armed_deadline = kNoDeadline;
  std::uint32_t open_tick = 0;
};

/// One accepted server-side socket. Frames are demultiplexed to handlers by
/// the device_id they carry, so a connection is not bound to one device.
struct AsyncServiceEngine::ServerConn final : public EventHandler {
  ServerConn(AsyncServiceEngine& engine_in, std::uint64_t id_in, Fd fd)
      : engine(&engine_in), id(id_in), transport(std::move(fd)) {}

  void on_ready(bool readable, bool writable, bool hangup) override {
    engine->on_server_ready(id, readable, writable, hangup);
  }

  AsyncServiceEngine* engine;
  std::uint64_t id;
  SocketTransport transport;
  ChannelStats stats;
  std::uint32_t seq = 0;
  bool closed = false;
};

struct AsyncServiceEngine::AcceptorHandler final : public EventHandler {
  explicit AcceptorHandler(AsyncServiceEngine& engine_in) : engine(&engine_in) {}
  void on_ready(bool, bool, bool) override { engine->on_acceptor_ready(); }
  AsyncServiceEngine* engine;
};

AsyncServiceEngine::AsyncServiceEngine(AsyncServiceConfig config)
    : config_(config),
      core_(config.shards, config.seed, config.database,
            ServerPolicy{config.session_ttl_ticks, config.busy_retry_ticks}),
      clock_(kTickSeconds) {
  XPUF_REQUIRE(config.request_queue_cap >= 1, "request queue needs capacity");
  XPUF_REQUIRE(config.serve_budget_per_poll >= 1, "serve budget must be >= 1");
}

AsyncServiceEngine::~AsyncServiceEngine() = default;

void AsyncServiceEngine::provision(const sim::XorPufChip& chip,
                                   puf::ServerModel model,
                                   const sim::Environment& env,
                                   std::uint32_t auth_sessions,
                                   bool enroll_first, bool revoke_at_end) {
  const auto device_id = static_cast<std::uint64_t>(chip.id());
  core_.provision(chip, std::move(model), enroll_first);
  clients_.push_back(std::make_unique<ClientConn>(
      *this, clients_.size(), chip, env, core_.measure_stream(device_id),
      auth_sessions, enroll_first, revoke_at_end));
}

const std::vector<SessionRecord>& AsyncServiceEngine::device_records(
    std::uint64_t device_id) const {
  return core_.records(device_id);
}

bool AsyncServiceEngine::setup_listener() {
  Fd listen_fd;
  if (config_.unix_socket) {
    listen_fd = sys_listen_unix(config_.unix_path, 4096);
  } else {
    port_ = 0;  // ephemeral; sys_listen writes the kernel's pick back
    listen_fd = sys_listen_tcp_localhost(port_, 4096);
  }
  if (!listen_fd.valid()) return false;
  acceptor_ = std::make_unique<Acceptor>(std::move(listen_fd),
                                         config_.busy_retry_ticks);
  acceptor_handler_ = std::make_unique<AcceptorHandler>(*this);
  return loop_->add(acceptor_->fd(), acceptor_handler_.get());
}

void AsyncServiceEngine::start_connects() {
  std::size_t started = 0;
  while (next_connect_ < clients_.size() && started < kConnectBatch) {
    ClientConn& conn = *clients_[next_connect_++];
    ++started;
    std::pair<Fd, IoStatus> c =
        config_.unix_socket ? sys_connect_unix(config_.unix_path)
                            : sys_connect_tcp_localhost(port_);
    if (c.second == IoStatus::kError) {
      retire(conn, "connect failed");
      continue;
    }
    conn.attach(std::move(c.first),
                ClientPolicy{config_.client_timeout_ticks,
                             config_.client_max_retries},
                c.second == IoStatus::kOk);
    core_.attach_client(conn.chip->id(), *conn.client);
    if (!loop_->add(conn.transport->fd(), &conn)) {
      retire(conn, "epoll registration failed");
      continue;
    }
    // Unix connects complete synchronously; kick the first session now
    // rather than waiting for the initial writable edge.
    if (conn.connected) step_client(conn.index);
  }
}

void AsyncServiceEngine::on_acceptor_ready() {
  acceptor_->drain([this](Fd& fd) { return admit(fd); });
}

bool AsyncServiceEngine::admit(Fd& fd) {
  if (live_server_conns_ >= config_.max_connections) return false;
  const std::uint64_t id = next_conn_id_++;
  auto conn = std::make_unique<ServerConn>(*this, id, std::move(fd));
  if (!loop_->add(conn->transport.fd(), conn.get())) {
    // epoll rejected the fd: the connection is unusable, so it is counted
    // as accepted-then-closed (the ServerConn destructor closes the fd).
    conns_closed_add();
    return true;
  }
  server_conns_.emplace(id, std::move(conn));
  ++live_server_conns_;
  return true;
}

void AsyncServiceEngine::on_client_ready(std::size_t index, bool readable,
                                         bool writable, bool hangup) {
  ClientConn& conn = *clients_[index];
  if (!conn.transport) return;
  if (!conn.connected && (writable || hangup)) {
    const int err = sys_socket_error(conn.transport->fd_handle());
    if (err != 0) {
      retire(conn, "deferred connect failed");
      loop_->remove(conn.transport->fd());
      return;
    }
    conn.connected = true;
  }
  if (readable || hangup) conn.transport->pump_reads(hangup);
  if (writable) conn.transport->flush_writes();
  if (conn.connected) step_client(index);
}

void AsyncServiceEngine::step_client(std::size_t index) {
  ClientConn& conn = *clients_[index];
  if (!conn.client) return;
  if (conn.transport->failed()) {
    // Surfaced as a violation in finalize(); retired so a broken transport
    // cannot stall quiescence for the whole fleet.
    retire(conn, nullptr);
    return;
  }
  conn.client->step(static_cast<std::uint32_t>(clock_.ticks()));
  if (conn.client->finished()) {
    retire(conn, nullptr);
    return;
  }
  arm_client_timer(index);
}

void AsyncServiceEngine::retire(ClientConn& conn, const char* failure) {
  if (failure != nullptr)
    connect_failures_.push_back("device " + std::to_string(conn.chip->id()) +
                                ": " + failure);
  if (!conn.counted_finished) {
    conn.counted_finished = true;
    ++finished_clients_;
  }
}

void AsyncServiceEngine::arm_client_timer(std::size_t index) {
  ClientConn& conn = *clients_[index];
  const std::uint32_t deadline = conn.client->deadline_round();
  // Lazy cancellation: stale wheel entries fire harmlessly (step() checks
  // the authoritative deadline); only a CHANGED deadline needs a new entry.
  if (deadline == conn.armed_deadline) return;
  conn.armed_deadline = deadline;
  loop_->arm_timer(deadline, kClientTag | static_cast<std::uint64_t>(index));
}

void AsyncServiceEngine::on_server_ready(std::uint64_t conn_id, bool readable,
                                         bool writable, bool hangup) {
  auto it = server_conns_.find(conn_id);
  if (it == server_conns_.end() || it->second->closed) return;
  ServerConn& conn = *it->second;
  if (readable || hangup) {
    const PumpStatus pump = conn.transport.pump_reads(hangup);
    while (auto frame = recv_frame(conn.transport, conn.stats))
      enqueue_request(conn, std::move(*frame));
    // Every whole frame is queued; bytes still in the decoder are a frame
    // the closed peer never finished, and no later byte can complete it.
    if (pump == PumpStatus::kPeerClosed) {
      close_server_conn(conn_id);
      return;
    }
  }
  if (writable) conn.transport.flush_writes();
}

void AsyncServiceEngine::enqueue_request(ServerConn& conn, Frame frame) {
  if (request_queue_.size() >= config_.request_queue_cap) {
    // Typed backpressure: the request is answered NOW with a retryable busy
    // NACK instead of being dropped; the client's deadline path retries.
    ++request_overflow_;
    static Counter& request_overflow =
        MetricsRegistry::global().counter("net.async.request_overflow");
    request_overflow.add();
    TransportSink sink(conn.transport, conn.stats, conn.seq,
                       frame.header.device_id);
    NackPayload nack;
    nack.reason = NackReason::kBusy;
    nack.retry_after_rounds = config_.busy_retry_ticks;
    sink.send(FrameType::kNack, frame.header.session_id, encode_nack(nack));
    return;
  }
  QueuedRequest req;
  req.conn_id = conn.id;
  req.frame = std::move(frame);
  request_queue_.push_back(std::move(req));
}

void AsyncServiceEngine::serve_queue() {
  const std::uint64_t now = clock_.ticks();
  std::size_t served = 0;
  while (!request_queue_.empty() && served < config_.serve_budget_per_poll) {
    QueuedRequest req = std::move(request_queue_.front());
    request_queue_.pop_front();
    ++served;
    auto it = server_conns_.find(req.conn_id);
    if (it == server_conns_.end() || it->second->closed)
      continue;  // the connection died while the request queued
    ServerConn& conn = *it->second;
    const std::uint64_t device_id = req.frame.header.device_id;
    ServerSessionHandler* handler = core_.handler(device_id);
    TransportSink sink(conn.transport, conn.stats, conn.seq, device_id);
    if (handler == nullptr) {
      ++unknown_device_nacks_;
      NackPayload nack;
      nack.reason = NackReason::kUnknownDevice;
      nack.retry_after_rounds = 0;  // terminal
      sink.send(FrameType::kNack, req.frame.header.session_id,
                encode_nack(nack));
      continue;
    }
    handler->expire_if_due(now);
    handler->handle(req.frame, now, sink);
    arm_ttl_timer(device_id);
  }
}

void AsyncServiceEngine::arm_ttl_timer(std::uint64_t device_id) {
  ServerSessionHandler* handler = core_.handler(device_id);
  if (handler == nullptr) return;
  const auto deadline = handler->ttl_deadline();
  if (!deadline) return;
  auto it = armed_ttl_.find(device_id);
  if (it != armed_ttl_.end() && it->second == *deadline) return;
  armed_ttl_[device_id] = *deadline;
  loop_->arm_timer(*deadline, kTtlTag | device_id);
}

void AsyncServiceEngine::on_timer(std::uint64_t key, std::uint64_t now) {
  const std::uint64_t tag = key & kTagMask;
  const std::uint64_t payload = key & ~kTagMask;
  if (tag == kClientTag) {
    const auto index = static_cast<std::size_t>(payload);
    if (index < clients_.size() && clients_[index]->connected)
      step_client(index);
    return;
  }
  if (tag == kTtlTag) {
    ServerSessionHandler* handler = core_.handler(payload);
    if (handler == nullptr) return;
    armed_ttl_.erase(payload);
    handler->expire_if_due(now);
    arm_ttl_timer(payload);  // session may have moved on — lazy re-arm
  }
}

void AsyncServiceEngine::close_server_conn(std::uint64_t conn_id) {
  auto it = server_conns_.find(conn_id);
  if (it == server_conns_.end() || it->second->closed) return;
  ServerConn& conn = *it->second;
  conn.closed = true;
  if (live_server_conns_ > 0) --live_server_conns_;
  loop_->remove(conn.transport.fd());
  conns_closed_add();
  // The Fd stays owned by the transport; it closes when the map entry is
  // destroyed at engine teardown, after finalize() has read the stats.
}

bool AsyncServiceEngine::quiescent() const {
  if (finished_clients_ < clients_.size()) return false;
  if (!request_queue_.empty()) return false;
  for (const auto& conn : clients_)
    if (conn->transport && !conn->transport->failed() &&
        (!conn->transport->idle() || conn->transport->wants_write()))
      return false;
  for (const auto& entry : server_conns_) {
    const ServerConn& conn = *entry.second;
    if (!conn.closed && (!conn.transport.idle() || conn.transport.wants_write()))
      return false;
  }
  return true;
}

void AsyncServiceEngine::observe_latency(std::uint64_t ticks_elapsed) {
  latency_histogram().observe(static_cast<double>(ticks_elapsed) *
                              kTickSeconds * 1e3);
}

AsyncServiceReport AsyncServiceEngine::run() {
  XPUF_TRACE_SPAN("net.async_service_run");
  XPUF_REQUIRE(core_.device_count() > 0,
               "run() needs at least one provisioned device");
  loop_ = std::make_unique<EventLoop>(clock_);
  XPUF_REQUIRE(loop_->valid(), "epoll_create failed");
  XPUF_REQUIRE(setup_listener(), "listener setup failed");
  sys_raise_nofile(2 * clients_.size() + 64);
  loop_->set_timer_handler(
      [this](std::uint64_t key, std::uint64_t now) { on_timer(key, now); });

  auto& registry = MetricsRegistry::global();
  const std::uint64_t base_read =
      registry.counter("net.async.bytes_read").total();
  const std::uint64_t base_written =
      registry.counter("net.async.bytes_written").total();

  bool clean = false;
  for (;;) {
    start_connects();
    const bool busy =
        !request_queue_.empty() || next_connect_ < clients_.size();
    loop_->poll(busy ? 0 : 10);
    serve_queue();
    if (quiescent()) {
      const std::uint64_t r =
          registry.counter("net.async.bytes_read").total() - base_read;
      const std::uint64_t w =
          registry.counter("net.async.bytes_written").total() - base_written;
      // Bytes still in kernel buffers arrive as later readable edges; only
      // the balanced state is true quiescence.
      if (r == w) {
        clean = true;
        break;
      }
    }
    if (clock_.ticks() >= kMaxTicks) break;
  }

  // Teardown: every surviving descriptor leaves the loop and is counted.
  for (const auto& conn : clients_)
    if (conn->transport) {
      loop_->remove(conn->transport->fd());
      conns_closed_add();
    }
  for (const auto& entry : server_conns_)
    if (!entry.second->closed)
      close_server_conn(entry.first);
  if (acceptor_) {
    loop_->remove(acceptor_->fd());
    acceptor_->close();
    if (config_.unix_socket) sys_unlink_unix(config_.unix_path);
  }

  AsyncServiceReport report = finalize(clean);
  report.bytes_read =
      registry.counter("net.async.bytes_read").total() - base_read;
  report.bytes_written =
      registry.counter("net.async.bytes_written").total() - base_written;
  if (clean && report.bytes_read != report.bytes_written)
    report.violations.push_back(
        "byte conservation broken: read " + std::to_string(report.bytes_read) +
        " != written " + std::to_string(report.bytes_written));
  report.ticks = clock_.ticks();
  return report;
}

AsyncServiceReport AsyncServiceEngine::finalize(bool all_finished) {
  AsyncServiceReport report;
  report.all_finished = all_finished;
  report.violations = connect_failures_;
  if (!all_finished)
    report.violations.push_back("tick budget exhausted with live sessions");
  core_.reconcile(report);
  for (const auto& conn : clients_)
    if (conn->transport && conn->transport->failed())
      report.violations.push_back("device " + std::to_string(conn->chip->id()) +
                                  ": client transport failed");

  // reconcile() summed the client side of the frame totals.
  const ChannelStats client{report.frames_sent, report.frames_delivered,
                            report.frames_corrupt};
  ChannelStats server;
  for (const auto& entry : server_conns_) {
    const ServerConn& conn = *entry.second;
    server.sent += conn.stats.sent;
    server.delivered += conn.stats.delivered;
    server.corrupt += conn.stats.corrupt;
    if (conn.transport.failed())
      report.violations.push_back("server connection " +
                                  std::to_string(conn.id) +
                                  ": transport failed");
  }
  report.frames_sent += server.sent;
  report.frames_delivered += server.delivered;
  report.frames_corrupt += server.corrupt;
  // Frame conservation on a reliable wire: every sent frame is delivered (or
  // surfaced corrupt) exactly once the run is quiescent.
  if (all_finished) {
    if (client.sent != server.delivered + server.corrupt)
      report.violations.push_back("uplink frame conservation broken");
    if (server.sent != client.delivered + client.corrupt)
      report.violations.push_back("downlink frame conservation broken");
  }
  // Every server frame is a handler reply or one of this driver's NACKs.
  const std::uint64_t replies =
      report.replies_sent + request_overflow_ + unknown_device_nacks_;
  if (server.sent != replies)
    report.violations.push_back(
        "server connections sent " + std::to_string(server.sent) +
        " frames, handlers and request queue replied " +
        std::to_string(replies));

  report.connections_accepted = acceptor_ ? acceptor_->accepted() : 0;
  report.accept_overflow = acceptor_ ? acceptor_->overflowed() : 0;
  report.request_overflow = request_overflow_;
  report.nacks_sent += unknown_device_nacks_ + request_overflow_;
  report.busy_nacks += request_overflow_ + report.accept_overflow;

  MetricsRegistry::global()
      .gauge("net.async.connections")
      .set(static_cast<double>(server_conns_.size()));
  return report;
}

}  // namespace xpuf::net::async
