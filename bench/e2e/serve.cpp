// serve_n10 / serve_n2: the socket service in steady state. Each round
// enrolls four chips of one fixed lot (paper training set), provisions them
// into a fresh AsyncServiceEngine with issuance pools (registered at
// provision, so the first AUTH_BEGIN already drains a pool) and runs every
// device's authentication sessions as a closed loop over localhost TCP:
// four connections, one per device, each at a different paper corner.
// Pools refill on the serving path, so screening cost shows at n = 10.
//
// The engine exposes no per-session hook, so traced runs drive the same
// devices, corners, seeds and pool policy through DeviceClient <->
// ServerSessionHandler over a socketpair per device, with spans around the
// transport, codec and handler calls. Its outcome digest must equal the
// engine's: the traced harness runs the same protocol decisions.
#include "workloads.hpp"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "net/async/service_engine.hpp"
#include "net/async/socket_transport.hpp"
#include "net/async/syscall.hpp"
#include "net/server_session.hpp"
#include "net/service.hpp"
#include "net/session.hpp"
#include "net/wire.hpp"
#include "puf/database.hpp"
#include "puf/enrollment.hpp"
#include "sim/environment.hpp"
#include "sim/population.hpp"
#include "trace.hpp"

namespace xpuf::bench_e2e {

namespace {

constexpr std::size_t kDevices = 4;  // one connection per device, <= nproc
constexpr std::size_t kChallengeCount = 16;
constexpr std::size_t kPoolTarget = 96;
constexpr std::size_t kPoolLowWater = 8;
/// The lot is fixed so that run-to-run spread measures the service rather
/// than which four chips a seed drew; the seed drives enrollment noise,
/// pool and issuance streams, and measurement noise.
constexpr std::uint64_t kLotSeed = 0x5e27e10ull;
// Engine defaults, mirrored by the traced harness.
constexpr std::uint64_t kSessionTtlTicks = 2000;
constexpr std::uint16_t kBusyRetryTicks = 2;
constexpr std::uint32_t kClientTimeoutTicks = 400;
constexpr std::uint32_t kClientMaxRetries = 6;

/// Authentication sessions per device and round.
std::uint32_t sessions_per_device(std::size_t n_pufs) { return n_pufs >= 10 ? 300 : 1500; }

/// The paper corners the four devices sit at: nominal, then three
/// off-nominal corners, so a denied genuine device (auth_fail_ratio) is a
/// reliability signal.
std::vector<sim::Environment> device_corners() {
  const std::vector<std::pair<double, double>> wanted = {
      {0.9, 25.0}, {0.8, 0.0}, {1.0, 60.0}, {0.8, 60.0}};
  std::vector<sim::Environment> out;
  for (const auto& [v, t] : wanted)
    for (const sim::Environment& e : sim::paper_corner_grid())
      if (e.voltage == v && e.temperature == t) out.push_back(e);
  return out;
}

struct Fleet {
  explicit Fleet(const sim::PopulationConfig& pop) : lot(pop) {}
  sim::ChipPopulation lot;
  std::vector<puf::ServerModel> models;
};

/// Round set-up shared by the engine and the traced harness: enroll the lot.
Fleet enroll_fleet(const sim::PopulationConfig& pop, const puf::Enroller& enroller,
                   const StreamFamily& family) {
  Fleet fleet(pop);
  fleet.models.resize(kDevices);
  parallel_for(kDevices, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      Rng rng = family.stream(i);
      fleet.models[i] = enroller.enroll(fleet.lot.chip(i), rng);
      fleet.models[i].set_betas(puf::BetaFactors{0.9, 1.1});
    }
  });
  return fleet;
}

/// Outcome digest over session records, the engines' outcome_fingerprint
/// formula.
void mix_records(std::uint64_t& h, std::uint64_t device_id,
                 const std::vector<net::SessionRecord>& records) {
  for (const net::SessionRecord& rec : records) {
    mix(h, device_id);
    mix(h, rec.session_id);
    mix(h, static_cast<std::uint64_t>(rec.opened_with));
    mix(h, static_cast<std::uint64_t>(rec.terminal));
    mix(h, rec.mismatches);
    mix(h, rec.challenges_used);
  }
}

enum SpanId : std::size_t {
  kRoot,
  kStep,
  kClientSend,
  kClientReceive,
  kClientPump,
  kServerPump,
  kServerReceive,
  kDecode,
  kHandle,
  kEncode,
  kServerSend,
};

const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names = {
      "serve.round",         "sim.client_step",     "net.async.client_send",
      "net.async.client_receive", "net.async.client_pump", "net.async.server_pump",
      "net.async.server_receive", "net.wire.decode_frame", "net.session.handle",
      "net.wire.encode_frame", "net.async.server_send"};
  return names;
}

/// The client's side of one socket, with spans around the transport calls
/// DeviceClient makes from inside step().
class SpanTransport final : public net::Transport {
 public:
  SpanTransport(net::async::SocketTransport& inner, TraceRecorder* recorder,
                const SpanNames& ids)
      : inner_(&inner), recorder_(recorder), ids_(&ids) {}

  void send(std::vector<std::uint8_t> frame) override {
    const ScopedSpan span(recorder_, (*ids_)[kClientSend]);
    inner_->send(std::move(frame));
  }
  std::optional<std::vector<std::uint8_t>> receive() override {
    const ScopedSpan span(recorder_, (*ids_)[kClientReceive]);
    return inner_->receive();
  }
  bool idle() const override { return inner_->idle(); }
  void tick() override {}

 private:
  net::async::SocketTransport* inner_;
  TraceRecorder* recorder_;
  const SpanNames* ids_;
};

/// One device's connection in the traced harness.
struct Lane {
  Lane(net::async::Fd client_fd, net::async::Fd server_fd, const sim::XorPufChip& chip,
       const sim::Environment& env, Rng measure_rng, std::uint32_t sessions,
       puf::ServerDatabase& db, std::map<std::uint64_t, puf::ServerModel>& provisioned,
       const StreamFamily& issue_family, TraceRecorder* recorder, const SpanNames& ids)
      : device_id(chip.id()),
        client_socket(std::move(client_fd)),
        server_socket(std::move(server_fd)),
        client_view(client_socket, recorder, ids),
        client(chip, env, measure_rng, client_view, client_view, sessions,
               net::ClientPolicy{kClientTimeoutTicks, kClientMaxRetries},
               /*enroll_first=*/false),
        handler(device_id, db, provisioned, issue_family,
                net::ServerPolicy{kSessionTtlTicks, kBusyRetryTicks}) {}

  std::uint64_t device_id;
  net::async::SocketTransport client_socket;
  net::async::SocketTransport server_socket;
  SpanTransport client_view;
  net::DeviceClient client;
  net::ServerSessionHandler handler;
  net::ChannelStats server_stats;
  std::uint32_t server_seq = 0;
};

/// Routes handler replies onto the lane's server socket, with spans around
/// the encode and the send.
class SpanSink final : public net::ReplySink {
 public:
  SpanSink(Lane& lane, TraceRecorder* recorder, const SpanNames& ids, std::uint64_t request)
      : lane_(&lane), recorder_(recorder), ids_(&ids), request_(request) {}

  void send(net::FrameType type, std::uint32_t session_id,
            std::vector<std::uint8_t> payload) override {
    net::Frame frame;
    frame.header.type = type;
    frame.header.device_id = lane_->device_id;
    frame.header.session_id = session_id;
    frame.header.seq = lane_->server_seq++;
    frame.payload = std::move(payload);
    std::vector<std::uint8_t> bytes;
    {
      const ScopedSpan span(recorder_, (*ids_)[kEncode], request_);
      bytes = net::encode_frame(frame);
    }
    {
      const ScopedSpan span(recorder_, (*ids_)[kServerSend], request_);
      lane_->server_socket.send(std::move(bytes));
    }
    ++lane_->server_stats.sent;
  }

 private:
  Lane* lane_;
  TraceRecorder* recorder_;
  const SpanNames* ids_;
  std::uint64_t request_;
};

struct HarnessRun {
  double seconds = 0.0;
  std::uint64_t digest = 0xc0ffee;
  std::uint64_t frames = 0;
};

/// Runs every device's sessions through the traced harness. Set-up (the
/// in-memory database with its pool pre-screening, and the socket pairs) is
/// outside the timed loop and outside the `delta` window.
HarnessRun run_harness(const Fleet& fleet, const std::vector<sim::Environment>& corners,
                std::uint32_t sessions, const puf::DatabaseConfig& db_cfg,
                std::uint64_t engine_seed, TraceRecorder* recorder, const SpanNames& ids,
                std::uint64_t round, RegistryDelta& delta, Result& result) {
  puf::ServerDatabase db(db_cfg);
  for (const puf::ServerModel& model : fleet.models) db.register_device(model);
  std::map<std::uint64_t, puf::ServerModel> provisioned;
  // The engines' family derivation (net/async/service_engine.cpp), so the
  // harness issues and measures exactly what the engine does.
  const StreamFamily issue_family(Rng(engine_seed ^ 0xfa'17'00'02).fork_base());
  const StreamFamily measure_family(Rng(engine_seed ^ 0xfa'17'00'03).fork_base());
  std::vector<std::unique_ptr<Lane>> lanes;
  for (std::size_t i = 0; i < kDevices; ++i) {
    net::async::Fd a;
    net::async::Fd b;
    result.check(net::async::sys_socketpair(a, b), "socketpair failed");
    const sim::XorPufChip& chip = fleet.lot.chip(i);
    lanes.push_back(std::make_unique<Lane>(std::move(a), std::move(b), chip, corners[i],
                                           measure_family.stream(chip.id()), sessions, db,
                                           provisioned, issue_family, recorder, ids));
  }

  HarnessRun run;
  delta.begin();
  const Timer timer;
  {
    const ScopedSpan root(recorder, ids[kRoot], round);
    std::uint32_t tick = 0;
    for (std::size_t finished = 0; finished < lanes.size(); ++tick) {
      finished = 0;
      for (const auto& lane : lanes) {
        const std::uint64_t request =
            (lane->device_id << 32) | (lane->client.records().size() + 1);
        if (!lane->client.finished()) {
          const ScopedSpan span(recorder, ids[kStep], request);
          lane->client.step(tick);
        }
        {
          const ScopedSpan span(recorder, ids[kServerPump], request);
          lane->server_socket.pump_reads();
        }
        for (;;) {
          std::optional<std::vector<std::uint8_t>> blob;
          {
            const ScopedSpan span(recorder, ids[kServerReceive], request);
            blob = lane->server_socket.receive();
          }
          if (!blob) break;
          ++lane->server_stats.delivered;
          net::Frame frame;
          net::DecodeStatus status = net::DecodeStatus::kOk;
          {
            const ScopedSpan span(recorder, ids[kDecode], request);
            status = net::decode_frame(*blob, frame);
          }
          if (status != net::DecodeStatus::kOk) {
            ++lane->server_stats.corrupt;
            continue;
          }
          SpanSink sink(*lane, recorder, ids, request);
          const ScopedSpan span(recorder, ids[kHandle], request);
          lane->handler.handle(frame, tick, sink);
        }
        {
          const ScopedSpan span(recorder, ids[kClientPump], request);
          lane->client_socket.pump_reads();
        }
        if (lane->client.finished()) ++finished;
      }
    }
  }
  run.seconds = timer.seconds();
  delta.end();

  for (const auto& lane : lanes) {
    const net::ChannelStats& client = lane->client.channel_stats();
    result.check(lane->client.records().size() == sessions, "harness lost sessions");
    result.check(client.sent == lane->server_stats.delivered &&
                     lane->server_stats.sent == client.delivered &&
                     client.corrupt + lane->server_stats.corrupt == 0,
                 "harness frame conservation broken");
    result.check(lane->client_socket.idle() && lane->server_socket.idle(),
                 "harness sockets not idle after the run");
    run.frames += client.sent + lane->server_stats.sent;
    mix_records(run.digest, lane->device_id, lane->client.records());
  }
  return run;
}

}  // namespace

Result run_serve(const Options& options, std::size_t n_pufs) {
  Result result;
  const std::uint32_t sessions =
      static_cast<std::uint32_t>(options.size(sessions_per_device(n_pufs), 2));
  const std::vector<sim::Environment> corners = device_corners();
  result.check(corners.size() == kDevices, "paper corner grid lacks a wanted corner");

  puf::EnrollmentConfig enroll_cfg;  // the paper's 5,000 x 10,000 training set
  const puf::Enroller enroller(enroll_cfg);
  sim::PopulationConfig pop_cfg;
  pop_cfg.n_chips = kDevices;
  pop_cfg.n_pufs_per_chip = n_pufs;
  pop_cfg.seed = kLotSeed;
  const StreamFamily enroll_family(Rng(options.seed ^ 0x5e27e000ull).fork_base());

  puf::DatabaseConfig db_cfg;
  db_cfg.n_pufs = n_pufs;
  db_cfg.policy.challenge_count = kChallengeCount;
  db_cfg.pool.target = kPoolTarget;
  db_cfg.pool.low_water = kPoolLowWater;
  db_cfg.pool.seed ^= options.seed;
  const std::uint64_t engine_seed = options.seed * 0x9e3779b97f4a7c15ull + n_pufs;

  net::async::AsyncServiceConfig engine_cfg;
  engine_cfg.seed = engine_seed;
  engine_cfg.database = db_cfg;
  engine_cfg.session_ttl_ticks = kSessionTtlTicks;
  engine_cfg.busy_retry_ticks = kBusyRetryTicks;
  engine_cfg.client_timeout_ticks = kClientTimeoutTicks;
  engine_cfg.client_max_retries = kClientMaxRetries;

  result.sizes["devices"] = static_cast<double>(kDevices);
  result.sizes["connections"] = static_cast<double>(kDevices);
  result.sizes["pufs"] = static_cast<double>(n_pufs);
  result.sizes["sessions_per_device_per_round"] = sessions;
  result.sizes["challenges_per_auth"] = static_cast<double>(kChallengeCount);
  result.sizes["pool_target"] = static_cast<double>(kPoolTarget);
  result.sizes["pool_low_water"] = static_cast<double>(kPoolLowWater);
  result.sizes["engine_shards"] = engine_cfg.shards;
  result.sizes["training_challenges"] = static_cast<double>(enroll_cfg.training_challenges);
  result.sizes["trials"] = static_cast<double>(enroll_cfg.trials);

  std::unique_ptr<TraceRecorder> recorder;
  if (options.traced()) recorder = std::make_unique<TraceRecorder>();
  const SpanNames ids(recorder.get(), span_names());
  // Traced runs cycle engine, untraced harness and traced harness rounds.
  const std::size_t kinds = recorder ? 3 : 1;
  RegistryDelta traced_delta;
  std::vector<double> setup_s, rate, harness_rate, harness_rate_traced;
  std::uint64_t sessions_total = 0, denied = 0, retries = 0;
  std::uint64_t traced_auths = 0, traced_frames = 0;
  double rss_per_issued = 0.0;

  const Timer wall;
  while (want_round(options, result.rounds, wall.seconds(), kinds)) {
    const std::uint64_t kind = result.rounds % kinds;
    Timer timer;
    const Fleet fleet = enroll_fleet(pop_cfg, enroller, enroll_family);
    std::uint64_t digest = 0;
    if (kind == 0) {
      net::async::AsyncServiceEngine engine(engine_cfg);
      for (std::size_t i = 0; i < kDevices; ++i)
        engine.provision(fleet.lot.chip(i), fleet.models[i], corners[i], sessions,
                         /*enroll_first=*/false);
      setup_s.push_back(timer.seconds());

      RegistryDelta delta;
      const double rss_before = peak_rss_mb();
      delta.begin();
      timer.reset();
      const net::async::AsyncServiceReport report = engine.run();
      const double measured = timer.seconds();
      delta.end();
      rate.push_back(static_cast<double>(report.sessions_total) / measured);
      if (sessions_total == 0)
        rss_per_issued = (peak_rss_mb() - rss_before) * 1024.0 * 1024.0 /
                         static_cast<double>(delta.counter("db.challenges_issued"));

      for (const std::string& v : report.violations) result.check(false, "engine: " + v);
      result.check(report.reconciled(), "engine run did not reconcile");
      result.check(report.sessions_total == kDevices * sessions, "engine lost sessions");
      result.check(report.approved + report.denied == report.sessions_total,
                   "sessions ended rejected or failed");
      result.check(report.bytes_read == report.bytes_written, "byte conservation broken");
      result.check(delta.counter("auth.pool_hits") + delta.counter("auth.pool_misses") ==
                       delta.counter("db.issue_requests"),
                   "pool hits + misses != db.issue_requests");
      result.check(delta.counter("db.issue_requests") == report.batches_issued,
                   "db.issue_requests != batches issued");
      // The paper's chips take 32-bit challenges, so a refill can screen a
      // challenge that already waits in the device's pool; the drain's
      // replay guard drops the second copy and tops the batch up from the
      // pool. Rejections are therefore allowed here, short batches are not.
      result.check(delta.counter("db.challenges_issued") == report.batches_issued * kChallengeCount,
                   "a batch was issued short of its challenges");
      sessions_total += report.sessions_total;
      denied += report.denied;
      retries += report.retries;
      // A denial is a verdict (reported as auth_fail_ratio); a session fails
      // when it ends without one.
      result.attempted += report.sessions_total;
      result.failed += report.rejected + report.failed;
      digest = report.outcome_fingerprint;

      if (options.smoke) {
        // Lockstep oracle: same seed and plan on the deterministic engine.
        // Two rounds per session plus slack; a fixed budget would fail at
        // long session plans.
        net::ServiceConfig oracle_cfg;
        oracle_cfg.seed = engine_seed;
        oracle_cfg.database = db_cfg;
        oracle_cfg.max_rounds = 4 * sessions + 64;
        net::ServiceEngine oracle(oracle_cfg);
        for (std::size_t i = 0; i < kDevices; ++i)
          oracle.provision(fleet.lot.chip(i), fleet.models[i], corners[i], sessions,
                           /*enroll_first=*/false);
        const net::ServiceReport oracle_report = oracle.run();
        result.check(oracle_report.reconciled(), "lockstep oracle did not reconcile");
        result.check(oracle_report.outcome_fingerprint == report.outcome_fingerprint,
                     "engine outcome fingerprint differs from the lockstep oracle");
      }
    } else {
      TraceRecorder* rec = kind == 2 ? recorder.get() : nullptr;
      RegistryDelta untraced_delta;
      const HarnessRun run = run_harness(fleet, corners, sessions, db_cfg, engine_seed, rec, ids,
                                  result.rounds, rec ? traced_delta : untraced_delta, result);
      const double auths = static_cast<double>(kDevices * sessions);
      if (rec != nullptr) {
        traced_auths += kDevices * sessions;
        traced_frames += run.frames;
        harness_rate_traced.push_back(auths / run.seconds);
      } else {
        harness_rate.push_back(auths / run.seconds);
      }
      digest = run.digest;
    }
    result.check_digest(digest);
    ++result.rounds;
  }

  result.e2e("setup_s", best_seconds(setup_s), "s");
  result.e2e("ops_per_s", best_rate(rate), "1/s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  result.sizes["rounds_measured"] = static_cast<double>(rate.size());
  if (!recorder) return result;

  const auto table = recorder->self_times();
  const auto self = [&](std::size_t id) {
    const auto it = table.find(span_names()[id]);
    return it == table.end() ? 0.0 : it->second.self_s;
  };
  const auto root = table.find(span_names()[kRoot]);
  const double round_s = root == table.end() ? 0.0 : root->second.total_s;
  const double n = static_cast<double>(traced_auths);
  const double issue_s = traced_delta.span_seconds("db.issue_batch");
  const double refill_s = traced_delta.span_seconds("db.pool_refill");
  const auto tried = static_cast<double>(traced_delta.counter("selection.candidates_tried"));
  const auto accepted = static_cast<double>(traced_delta.counter("selection.accepted"));
  const auto refills = static_cast<double>(traced_delta.counter("auth.pool_refills"));
  const auto hits = static_cast<double>(traced_delta.counter("auth.pool_hits"));
  const auto misses = static_cast<double>(traced_delta.counter("auth.pool_misses"));
  const double io_s = self(kClientSend) + self(kServerSend) + self(kClientPump) +
                      self(kServerPump);
  const double deframe_s = self(kClientReceive) + self(kServerReceive);
  const double codec_s = self(kDecode) + self(kEncode);
  const double handle_s = self(kHandle) - issue_s;
  const double client_s = self(kStep);
  const double attributed_s = round_s - self(kRoot);

  result.layer("sim.client_us_per_auth", client_s * 1e6 / n, "us");
  result.layer("puf.screen.candidates_per_auth", tried / n, "count");
  result.layer("puf.screen.accept_ratio", accepted / tried, "ratio");
  result.layer("puf.screen.us_per_candidate", refill_s * 1e6 / tried, "us");
  result.layer("puf.db.refills_per_auth", refills / n, "count");
  result.layer("puf.db.refill_ms", refills > 0.0 ? refill_s * 1e3 / refills : 0.0, "ms");
  result.layer("puf.db.pool_hit_ratio", hits / (hits + misses), "ratio");
  result.layer("puf.db.rss_bytes_per_issued", rss_per_issued, "B");
  result.layer("net.frames_per_auth", static_cast<double>(traced_frames) / n, "count");
  result.layer("net.bytes_per_auth",
               static_cast<double>(traced_delta.counter("net.async.bytes_written")) / n, "B");
  result.layer("net.retries_per_auth",
               static_cast<double>(retries) / static_cast<double>(sessions_total), "count");
  result.layer("net.async.io_us_per_auth", io_s * 1e6 / n, "us");
  result.layer("net.async.deframe_us_per_auth", deframe_s * 1e6 / n, "us");
  result.layer("net.wire.codec_us_per_auth", codec_s * 1e6 / n, "us");
  result.layer("net.session.handle_us_per_auth", handle_s * 1e6 / n, "us");
  result.layer("net.session.issue_us_per_auth", issue_s * 1e6 / n, "us");
  result.layer("net.async.loop_us_per_auth", 1e6 / median(rate) - attributed_s * 1e6 / n,
               "us");
  result.layer("auth_fail_ratio",
               static_cast<double>(denied) / static_cast<double>(sessions_total), "ratio");
  result.layer("share.sim", client_s / round_s, "ratio");
  result.layer("share.screen", refill_s / round_s, "ratio");
  result.layer("share.db", (issue_s - refill_s) / round_s, "ratio");
  result.layer("share.net", (io_s + deframe_s + codec_s + handle_s) / round_s, "ratio");
  result.layer("trace.coverage", coverage_of(*recorder, span_names()[kRoot]), "ratio");
  result.layer("trace.overhead_ratio", median(harness_rate) / median(harness_rate_traced),
               "ratio");
  write_trace(*recorder, options, result);
  return result;
}

}  // namespace xpuf::bench_e2e
