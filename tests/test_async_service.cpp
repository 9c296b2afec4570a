// Tests for the async socket subsystem (net/async/): syscall wrappers over a
// socketpair, deterministic timer-wheel/event-loop timing under ManualClock,
// SocketTransport framing, typed accept-overflow backpressure, and the
// headline reconciliation contract — the event-loop engine's per-device
// ledgers and outcome fingerprint must match the lockstep oracle bit-for-bit
// on the same seed and workload.
//
// The retransmit/TTL tests drive the REAL deadline arithmetic under an
// injectable ManualClock, so the exponential backoff and session-TTL expiry
// are pinned at exact ticks instead of relying on the lockstep engine's
// round-counting coincidences (one lockstep round == one full RTT; a clock
// tick is not).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "net/async/acceptor.hpp"
#include "net/async/clock.hpp"
#include "net/async/event_loop.hpp"
#include "net/async/service_engine.hpp"
#include "net/async/socket_transport.hpp"
#include "net/async/syscall.hpp"
#include "net/async/timer_wheel.hpp"
#include "net/server_session.hpp"
#include "net/service.hpp"
#include "net/session.hpp"
#include "puf/enrollment.hpp"
#include "sim/population.hpp"

namespace xpuf::net::async {
namespace {

/// Test clock: ticks advance only when the test says so, and any armed
/// deadline is always "due now" so a poll never sleeps on it.
class ManualClock final : public Clock {
 public:
  std::uint64_t ticks() override { return now_; }
  double millis_until([[maybe_unused]] std::uint64_t tick) override {
    return 0.0;
  }

  void advance(std::uint64_t delta) { now_ += delta; }
  void set(std::uint64_t now) { now_ = now; }

 private:
  std::uint64_t now_ = 0;
};

struct Fleet {
  sim::ChipPopulation pop;
  std::vector<puf::ServerModel> models;
};

Fleet make_fleet(std::size_t devices) {
  sim::PopulationConfig cfg;
  cfg.n_chips = devices;
  cfg.n_pufs_per_chip = 2;
  cfg.seed = 5150;
  Fleet fleet{sim::ChipPopulation(cfg), {}};
  puf::EnrollmentConfig ecfg;
  ecfg.training_challenges = 600;
  ecfg.trials = 800;
  const puf::Enroller enroller(ecfg);
  Rng rng(808);
  for (std::size_t i = 0; i < devices; ++i) {
    puf::ServerModel m = enroller.enroll(fleet.pop.chip(i), rng);
    m.set_betas(puf::BetaFactors{0.85, 1.15});
    fleet.models.push_back(std::move(m));
  }
  return fleet;
}

// --------------------------------------------------------------------------
// Syscall wrappers

TEST(Syscall, SocketpairRoundTripAndEof) {
  Fd a, b;
  ASSERT_TRUE(sys_socketpair(a, b));
  const std::uint8_t out[] = {1, 2, 3, 4, 5};
  const IoResult put = sys_write(a, out, sizeof out);
  ASSERT_EQ(put.status, IoStatus::kOk);
  ASSERT_EQ(put.bytes, sizeof out);

  std::uint8_t in[16] = {};
  const IoResult got = sys_read(b, in, sizeof in);
  ASSERT_EQ(got.status, IoStatus::kOk);
  ASSERT_EQ(got.bytes, sizeof out);
  EXPECT_EQ(std::vector<std::uint8_t>(in, in + got.bytes),
            std::vector<std::uint8_t>(out, out + sizeof out));

  // Empty pipe reads would-block (nonblocking contract), EOF after close.
  EXPECT_EQ(sys_read(b, in, sizeof in).status, IoStatus::kWouldBlock);
  a = Fd();
  EXPECT_EQ(sys_read(b, in, sizeof in).status, IoStatus::kEof);
}

TEST(Syscall, EphemeralListenerAcceptsALocalhostConnect) {
  std::uint16_t port = 0;
  Fd listener = sys_listen_tcp_localhost(port, 8);
  ASSERT_TRUE(listener.valid());
  ASSERT_GT(port, 0) << "port 0 must be rewritten to the ephemeral port";

  auto [client, status] = sys_connect_tcp_localhost(port);
  ASSERT_TRUE(client.valid());
  ASSERT_NE(status, IoStatus::kError);

  AcceptResult accepted;
  for (int spin = 0; spin < 1000 && accepted.status != IoStatus::kOk; ++spin)
    accepted = sys_accept(listener);
  ASSERT_EQ(accepted.status, IoStatus::kOk);
  EXPECT_TRUE(accepted.fd.valid());
  EXPECT_EQ(sys_socket_error(client), 0);
}

// --------------------------------------------------------------------------
// Timer wheel

TEST(TimerWheel, FiresInDeadlineOrderAndNeverEarly) {
  TimerWheel wheel(16);
  wheel.arm(30, 3);
  wheel.arm(10, 1);
  wheel.arm(20, 2);
  EXPECT_TRUE(wheel.collect_due(9).empty());
  auto due = wheel.collect_due(20);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].key, 1u);
  EXPECT_EQ(due[1].key, 2u);
  due = wheel.collect_due(1000);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].key, 3u);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, PastDueArmFiresOnTheNextCollect) {
  TimerWheel wheel(8);
  ASSERT_TRUE(wheel.collect_due(100).empty());
  wheel.arm(50, 7);  // already in the past relative to the last collect
  const auto due = wheel.collect_due(100);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].key, 7u);
}

TEST(TimerWheel, LongJumpsAcrossManyRotationsCollectEverything) {
  TimerWheel wheel(8);
  for (std::uint64_t k = 0; k < 40; ++k) wheel.arm(k * 13 + 1, k);
  const auto due = wheel.collect_due(10'000);
  ASSERT_EQ(due.size(), 40u);
  for (std::size_t i = 1; i < due.size(); ++i)
    EXPECT_LE(due[i - 1].deadline, due[i].deadline);
}

TEST(TimerWheel, NextDeadlineIsTheEarliestArmedDeadlineAfterEveryStep) {
  // Random arms (past-due, near, and rotations ahead) and collects driven by
  // a ManualClock, on a wheel small enough that slots hold several
  // rotations: after every step next_deadline must equal a brute-force
  // minimum over the armed set, and each collect must return exactly the due
  // entries of that set in (deadline, arm order).
  for (const std::size_t slots : {1u, 8u, 64u}) {
    TimerWheel wheel(slots);
    ManualClock clock;
    Rng rng(0x7133e1 + slots);
    std::vector<TimerEntry> armed;  // the reference set, in arm order
    std::uint64_t seq = 0;
    std::uint64_t collected = 0;    // last collect time
    for (int step = 0; step < 4'000; ++step) {
      SCOPED_TRACE("slots=" + std::to_string(slots) + " step=" + std::to_string(step));
      if (rng.uniform_below(3) != 0) {
        // Deadlines from a few ticks before the last collect to several
        // rotations past the clock.
        const std::uint64_t lo = collected > 4 ? collected - 4 : 0;
        const std::uint64_t deadline = lo + rng.uniform_below(clock.ticks() - lo + 4 * slots + 40);
        const std::uint64_t key = rng.next_u64();
        wheel.arm(deadline, key);
        armed.push_back({deadline, key, seq++});
      } else {
        clock.advance(rng.uniform_below(rng.uniform_below(8) == 0 ? 10 * slots + 50 : 6));
        collected = clock.ticks();
        std::vector<TimerEntry> want;
        std::vector<TimerEntry> kept;
        for (const TimerEntry& e : armed) (e.deadline <= collected ? want : kept).push_back(e);
        std::stable_sort(want.begin(), want.end(), [](const TimerEntry& a, const TimerEntry& b) {
          return a.deadline < b.deadline;
        });
        armed = std::move(kept);
        const std::vector<TimerEntry> due = wheel.collect_due(collected);
        ASSERT_EQ(due.size(), want.size());
        for (std::size_t i = 0; i < due.size(); ++i) {
          EXPECT_EQ(due[i].deadline, want[i].deadline);
          EXPECT_EQ(due[i].key, want[i].key);
        }
      }
      ASSERT_EQ(wheel.size(), armed.size());
      std::uint64_t next = 0;
      ASSERT_EQ(wheel.next_deadline(next), !armed.empty());
      if (!armed.empty()) {
        std::uint64_t earliest = armed.front().deadline;
        for (const TimerEntry& e : armed) earliest = std::min(earliest, e.deadline);
        ASSERT_EQ(next, earliest);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Event loop under ManualClock

struct RecordingHandler final : EventHandler {
  void on_ready(bool readable, bool writable, bool hangup) override {
    ++events;
    was_readable = was_readable || readable;
    was_writable = was_writable || writable;
    saw_hangup = saw_hangup || hangup;
  }
  int events = 0;
  bool was_readable = false;
  bool was_writable = false;
  bool saw_hangup = false;
};

TEST(EventLoop, DispatchesReadinessAndTimersDeterministically) {
  ManualClock clock;
  EventLoop loop(clock, 16);
  ASSERT_TRUE(loop.valid());

  Fd a, b;
  ASSERT_TRUE(sys_socketpair(a, b));
  RecordingHandler handler;
  ASSERT_TRUE(loop.add(b.get(), &handler));

  const std::uint8_t byte = 0x5a;
  ASSERT_EQ(sys_write(a, &byte, 1).status, IoStatus::kOk);
  ASSERT_GT(loop.poll(0), 0);
  EXPECT_TRUE(handler.was_readable);

  std::vector<std::uint64_t> fired;
  loop.set_timer_handler([&](std::uint64_t key, std::uint64_t) {
    fired.push_back(key);
  });
  loop.arm_timer(5, 42);
  loop.arm_timer(9, 43);
  loop.poll(0);
  EXPECT_TRUE(fired.empty()) << "timers must not fire before their tick";
  clock.advance(5);
  loop.poll(0);
  ASSERT_EQ(fired, (std::vector<std::uint64_t>{42}));
  clock.advance(4);
  loop.poll(0);
  ASSERT_EQ(fired, (std::vector<std::uint64_t>{42, 43}));
  loop.remove(b.get());
}

// --------------------------------------------------------------------------
// SocketTransport

TEST(SocketTransport, FramesSurviveTheSocketAndIdleTracksBothSides) {
  Fd a, b;
  ASSERT_TRUE(sys_socketpair(a, b));
  SocketTransport tx(std::move(a));
  SocketTransport rx(std::move(b));

  Frame frame;
  frame.header.type = FrameType::kAuthBegin;
  frame.header.device_id = 77;
  frame.header.session_id = 1;
  ChannelStats tx_stats, rx_stats;
  send_frame(tx, frame, tx_stats);
  EXPECT_EQ(tx_stats.sent, 1u);

  ASSERT_EQ(rx.pump_reads(), PumpStatus::kOk);
  const auto got = recv_frame(rx, rx_stats);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->header.device_id, 77u);
  EXPECT_EQ(rx_stats.delivered, 1u);
  EXPECT_EQ(rx_stats.corrupt, 0u);
  EXPECT_TRUE(tx.idle());
  EXPECT_TRUE(rx.idle());
  EXPECT_FALSE(tx.failed());
}

TEST(SocketTransport, WriteBufferOverflowIsTypedNeverSilent) {
  MetricsRegistry::global().reset();
  Fd a, b;
  ASSERT_TRUE(sys_socketpair(a, b));
  // A tiny cap plus a peer that never reads: the transport must mark itself
  // failed and count the overflow ("net.async.write_overflow"), not grow or
  // drop silently.
  SocketTransport tx(std::move(a), /*max_write_buffer=*/1024);
  Frame frame;
  frame.header.type = FrameType::kChallengeBatch;
  frame.header.device_id = 1;
  frame.payload.assign(600, 0xab);
  ChannelStats stats;
  for (int i = 0; i < 512 && !tx.failed(); ++i) send_frame(tx, frame, stats);
  EXPECT_TRUE(tx.failed());
  EXPECT_GE(MetricsRegistry::global().snapshot().counters.at(
                "net.async.write_overflow"),
            1u);
}

// --------------------------------------------------------------------------
// Deterministic retransmit backoff under an explicit tick clock (the audit
// of ClientPolicy's clock-domain contract: deadlines double per retry and
// the budget exhausts at an exactly computable tick).

TEST(DeviceClientTiming, BackoffDoublesAtExactTicksAndExhaustsToFailed) {
  sim::PopulationConfig pcfg;
  pcfg.n_chips = 1;
  pcfg.n_pufs_per_chip = 2;
  pcfg.seed = 99;
  sim::ChipPopulation pop(pcfg);

  Fd a, b;
  ASSERT_TRUE(sys_socketpair(a, b));
  SocketTransport transport(std::move(a));  // server end (b) stays silent

  ClientPolicy policy;
  policy.timeout_rounds = 16;  // ticks, in the event-loop domain
  policy.max_retries = 2;
  DeviceClient client(pop.chip(0), sim::Environment::nominal(), Rng(4242),
                      transport, transport, /*auth_sessions=*/1, policy,
                      /*enroll_first=*/false, /*revoke_at_end=*/false);

  client.step(0);  // opens the session, arms the first deadline
  EXPECT_EQ(client.deadline_round(), 16u);
  client.step(15);  // one tick early: nothing may fire
  EXPECT_EQ(client.deadline_round(), 16u);
  EXPECT_EQ(client.records().size(), 0u);

  client.step(16);  // first retransmit; window doubles to 32
  EXPECT_EQ(client.deadline_round(), 48u);
  client.step(48);  // second retransmit; window doubles to 64
  EXPECT_EQ(client.deadline_round(), 112u);
  client.step(112);  // budget exhausted -> kFailed at exactly this tick
  ASSERT_TRUE(client.finished());
  ASSERT_EQ(client.records().size(), 1u);
  EXPECT_EQ(client.records()[0].terminal, SessionPhase::kFailed);
  EXPECT_EQ(client.records()[0].retries, 2u);
}

TEST(ServerSessionTiming, TtlExpiresAtExactlyOpenPlusTtlTicks) {
  Fleet fleet = make_fleet(1);
  const auto device_id = static_cast<std::uint64_t>(fleet.pop.chip(0).id());
  puf::DatabaseConfig dcfg;
  dcfg.n_pufs = 2;
  dcfg.policy.challenge_count = 8;
  puf::ServerDatabase db(dcfg);
  std::map<std::uint64_t, puf::ServerModel> provisioned;
  db.register_device(fleet.models[0]);
  const StreamFamily family(Rng(31337).fork_base());
  ServerPolicy policy;
  policy.session_ttl = 50;

  ServerSessionHandler handler(device_id, db, provisioned, family, policy);
  struct NullSink final : ReplySink {
    void send(FrameType, std::uint32_t, std::vector<std::uint8_t>) override {
      ++replies;
    }
    int replies = 0;
  } sink;

  Frame begin;
  begin.header.type = FrameType::kAuthBegin;
  begin.header.device_id = 11;
  begin.header.session_id = 1;
  handler.handle(begin, /*now=*/123, sink);
  ASSERT_EQ(handler.session().state, ServerSession::State::kChallengeSent);
  ASSERT_TRUE(handler.ttl_deadline().has_value());
  EXPECT_EQ(*handler.ttl_deadline(), 173u);

  EXPECT_FALSE(handler.expire_if_due(172)) << "one tick early must not expire";
  EXPECT_TRUE(handler.expire_if_due(173)) << "expiry lands exactly at open+ttl";
  EXPECT_EQ(handler.session().state, ServerSession::State::kNone);
  EXPECT_EQ(handler.ledger().sessions_expired, 1u);
}

// --------------------------------------------------------------------------
// Acceptor backpressure

TEST(Acceptor, OverflowSendsATypedBusyNackThenCloses) {
  MetricsRegistry::global().reset();
  std::uint16_t port = 0;
  Fd listener = sys_listen_tcp_localhost(port, 8);
  ASSERT_TRUE(listener.valid());
  Acceptor acceptor(std::move(listener), /*busy_retry_ticks=*/3);

  auto [client, status] = sys_connect_tcp_localhost(port);
  ASSERT_TRUE(client.valid());
  ASSERT_NE(status, IoStatus::kError);

  // Refuse everything: the engine-at-capacity path.
  std::size_t admitted = 0;
  for (int spin = 0; spin < 1000 && acceptor.overflowed() == 0; ++spin)
    admitted += acceptor.drain([](Fd&) { return false; });
  EXPECT_EQ(admitted, 0u);
  ASSERT_EQ(acceptor.overflowed(), 1u);
  ASSERT_EQ(acceptor.accepted(), 1u);

  // The refused client receives a parseable busy NACK — typed backpressure,
  // not a silent close (counters: "net.async.accept_overflow",
  // "net.async.connections_accepted").
  SocketTransport view(std::move(client));
  PumpStatus pump = PumpStatus::kOk;
  std::optional<std::vector<std::uint8_t>> blob;
  for (int spin = 0; spin < 2000 && !blob; ++spin) {
    pump = view.pump_reads();
    blob = view.receive();
    if (pump == PumpStatus::kPeerClosed && !blob) break;
  }
  ASSERT_TRUE(blob.has_value()) << "refusal must carry a NACK before close";
  Frame nack_frame;
  ASSERT_EQ(decode_frame(*blob, nack_frame), DecodeStatus::kOk);
  ASSERT_EQ(nack_frame.header.type, FrameType::kNack);
  NackPayload nack;
  ASSERT_EQ(decode_nack(nack_frame.payload, nack), DecodeStatus::kOk);
  EXPECT_EQ(nack.reason, NackReason::kBusy);
  EXPECT_EQ(nack.retry_after_rounds, 3u);
  const auto counters = MetricsRegistry::global().snapshot().counters;
  EXPECT_EQ(counters.at("net.async.accept_overflow"), 1u);
  EXPECT_EQ(counters.at("net.async.connections_accepted"), 1u);
}

// --------------------------------------------------------------------------
// Engine-vs-oracle reconciliation

constexpr std::uint64_t kSeed = 90210;

ServiceReport run_oracle(Fleet& fleet, std::uint32_t auth_sessions) {
  ServiceConfig config;
  config.seed = kSeed;
  config.database.n_pufs = 2;
  config.database.policy.challenge_count = 8;
  ServiceEngine engine(config);
  for (std::size_t i = 0; i < fleet.pop.size(); ++i)
    engine.provision(fleet.pop.chip(i), fleet.models[i],
                     sim::Environment::nominal(), auth_sessions,
                     /*enroll_first=*/true, /*revoke_at_end=*/i % 2 == 1);
  return engine.run();
}

TEST(AsyncServiceEngine, OutcomesReconcileExactlyWithTheLockstepOracle) {
  Fleet fleet = make_fleet(4);
  const ServiceReport oracle = run_oracle(fleet, 2);
  ASSERT_TRUE(oracle.reconciled());

  AsyncServiceConfig config;
  config.seed = kSeed;
  config.database.n_pufs = 2;
  config.database.policy.challenge_count = 8;
  AsyncServiceEngine engine(config);
  for (std::size_t i = 0; i < fleet.pop.size(); ++i)
    engine.provision(fleet.pop.chip(i), fleet.models[i],
                     sim::Environment::nominal(), 2,
                     /*enroll_first=*/true, /*revoke_at_end=*/i % 2 == 1);
  const AsyncServiceReport report = engine.run();
  for (const auto& violation : report.violations) ADD_FAILURE() << violation;
  EXPECT_TRUE(report.all_finished);
  EXPECT_EQ(report.devices, 4u);

  // The headline contract: same seed + workload => identical outcome digests
  // and identical per-device ledgers, field by field (retries excluded — they
  // are transport-variant by design).
  EXPECT_EQ(report.outcome_fingerprint, oracle.outcome_fingerprint);
  EXPECT_EQ(report.sessions_total, oracle.sessions_total);
  EXPECT_EQ(report.approved, oracle.approved);
  EXPECT_EQ(report.denied, oracle.denied);
  EXPECT_EQ(report.rejected, oracle.rejected);
  EXPECT_EQ(report.failed, oracle.failed);
  EXPECT_EQ(report.enroll_activated, oracle.enroll_activated);
  EXPECT_EQ(report.revocations, oracle.revocations);
  EXPECT_EQ(report.bytes_read, report.bytes_written)
      << "loopback byte conservation must hold at quiescence";
  EXPECT_GT(report.connections_accepted, 0u);
}

TEST(AsyncServiceEngine, OverloadProducesBusyNacksNeverSilentDrops) {
  Fleet fleet = make_fleet(4);
  AsyncServiceConfig config;
  config.seed = kSeed;
  config.database.n_pufs = 2;
  config.database.policy.challenge_count = 8;
  // Starve the server: a one-slot request queue and a one-frame serve budget
  // force queue overflows, which must surface as retryable busy NACKs that
  // clients absorb within their (raised) retry budget.
  config.request_queue_cap = 1;
  config.serve_budget_per_poll = 1;
  config.client_max_retries = 40;
  AsyncServiceEngine engine(config);
  for (std::size_t i = 0; i < fleet.pop.size(); ++i)
    engine.provision(fleet.pop.chip(i), fleet.models[i],
                     sim::Environment::nominal(), 2,
                     /*enroll_first=*/true, /*revoke_at_end=*/false);
  const AsyncServiceReport report = engine.run();
  for (const auto& violation : report.violations) ADD_FAILURE() << violation;
  EXPECT_TRUE(report.all_finished);
  EXPECT_EQ(report.failed, 0u)
      << "backpressure must degrade to retries, not to failed sessions";
  EXPECT_EQ(report.approved, report.sessions_total);
  // Every overflow is accounted as a busy NACK ("net.async.request_overflow",
  // "net.async.connections_closed", "net.async.timers_fired" all feed the
  // drift audit in the socket bench).
  EXPECT_GT(report.request_overflow, 0u);
  EXPECT_GE(report.busy_nacks,
            report.request_overflow + report.accept_overflow)
      << "every queue overflow must be accounted as a busy NACK";
}

TEST(AsyncServiceEngine, EveryReportCountsOnlyItsOwnRun) {
  // Three engines in one process with no MetricsRegistry reset between them:
  // the process-wide net.* totals grow with every run, but each report must
  // count its own engine's activations, revocations, NACKs and expiries.
  Fleet fleet = make_fleet(4);
  AsyncServiceConfig config;
  config.seed = kSeed;
  config.database.n_pufs = 2;
  config.database.policy.challenge_count = 8;
  AsyncServiceEngine engine(config);
  for (std::size_t i = 0; i < fleet.pop.size(); ++i)
    engine.provision(fleet.pop.chip(i), fleet.models[i],
                     sim::Environment::nominal(), 2,
                     /*enroll_first=*/true, /*revoke_at_end=*/i % 2 == 1);
  const AsyncServiceReport socket = engine.run();
  for (const auto& violation : socket.violations) ADD_FAILURE() << violation;
  EXPECT_EQ(socket.enroll_activated, 4u);
  EXPECT_EQ(socket.revocations, 2u);

  const ServiceReport first = run_oracle(fleet, 2);
  const ServiceReport second = run_oracle(fleet, 2);
  for (const ServiceReport* lockstep : {&first, &second}) {
    EXPECT_EQ(lockstep->enroll_activated, socket.enroll_activated);
    EXPECT_EQ(lockstep->revocations, socket.revocations);
    EXPECT_EQ(lockstep->nacks_sent, socket.nacks_sent);
    EXPECT_EQ(lockstep->sessions_expired, socket.sessions_expired);
    EXPECT_EQ(lockstep->outcome_fingerprint, socket.outcome_fingerprint);
  }
}

TEST(AsyncServiceEngine, ConfigPreconditionsAreEnforced) {
  AsyncServiceConfig config;
  config.shards = 0;
  EXPECT_THROW(AsyncServiceEngine{config}, std::invalid_argument);
  config = AsyncServiceConfig{};
  config.session_ttl_ticks = 0;
  EXPECT_THROW(AsyncServiceEngine{config}, std::invalid_argument);
  config = AsyncServiceConfig{};
  config.request_queue_cap = 0;
  EXPECT_THROW(AsyncServiceEngine{config}, std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::net::async
