// Server-side session state machine, shared by both service engines.
//
// The lockstep ServiceEngine (service.hpp) and the event-loop
// AsyncServiceEngine (async/service_engine.hpp) must run the SAME protocol
// decisions — that is what makes the lockstep engine usable as the oracle
// the socket engine reconciles against. One ServerSessionHandler per
// provisioned device (held by the shared EngineCore, engine_core.hpp) owns
// its ServerSession, decides begin/response/expiry transitions, and emits
// replies through a narrow ReplySink so each engine can route them over its
// own transport (lockstep pipe pair, nonblocking socket).
//
// Clock domain: `now` is whatever monotonic tick the owning engine supplies
// — lockstep rounds for ServiceEngine, async::Clock ticks (wall-ms by
// default) for the event loop. ServerPolicy::session_ttl and busy_retry are
// expressed in that same domain; nothing here assumes a tick equals a
// protocol round trip.
//
// Concurrency contract: a handler belongs to exactly one engine lane (a
// lockstep shard, or the single event-loop thread); all calls are serial.
// Alongside the global net.* counters every handler keeps a plain-integer
// ServerLedger so an engine can reconcile its own traffic even when several
// engines have incremented the shared registry in one process.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "net/wire.hpp"
#include "puf/database.hpp"

namespace xpuf::net {

/// StreamFamily key of a (device, session) issuance draw; the shift keeps
/// distinct devices' session streams decorrelated. Shared by both engines so
/// the same (device, session) always issues the same challenge batch.
std::uint64_t issue_stream_key(std::uint64_t device_id, std::uint32_t session_id);

/// Server-side protocol knobs, decoupled from each engine's config struct.
/// The defaults are sized for lockstep rounds, which use them as they are.
struct ServerPolicy {
  /// Ticks before an open session expires (frees the in-flight slot when a
  /// client gave up mid-handshake). Lockstep rounds or clock ticks — the
  /// engine picks the domain and must size the value for it.
  std::uint64_t session_ttl = 64;
  /// retry_after advertised in a busy NACK, in the engine's tick domain
  /// (the wire field is named retry_after_rounds for lockstep history).
  std::uint16_t busy_retry = 2;

  /// Throws std::invalid_argument unless session_ttl >= 1. Every handler
  /// checks its policy; EngineCore checks it once more up front, so an
  /// engine fails at construction rather than at its first provision().
  void require_valid() const;
};

/// Server-side view of one device's current session.
struct ServerSession {
  enum class State : std::uint8_t {
    kNone = 0,        ///< no open session (fresh, expired, or never opened)
    kChallengeSent,   ///< batch issued, awaiting RESPONSE_SUBMIT
    kDone,            ///< terminal reply cached for idempotent resends
  };

  State state = State::kNone;
  std::uint32_t session_id = 0;  ///< highest session id seen from the device
  std::uint64_t opened_at = 0;   ///< tick the current session was opened
  puf::ChallengeBatch batch;
  /// Last reply of the session, re-sent verbatim on duplicates: the
  /// CHALLENGE_BATCH while kChallengeSent, the AUTH_RESULT/NACK once kDone.
  FrameType cached_type = FrameType::kNack;
  std::vector<std::uint8_t> cached_payload;
};

/// Per-handler accounting mirror of the global net.* counters, summed by
/// EngineCore::reconcile() so every report counts only its own engine's run.
struct ServerLedger {
  std::uint64_t nacks_sent = 0;
  std::uint64_t busy_nacks = 0;        ///< subset of nacks_sent (kBusy)
  std::uint64_t sessions_expired = 0;
  std::uint64_t enroll_activated = 0;
  std::uint64_t revocations = 0;
  std::uint64_t frames_ignored = 0;
  std::uint64_t replies_sent = 0;
  /// Challenge batches issued (db.issue calls that returned a batch). Engines
  /// reconcile the sum against the global db.issue_requests counter so the
  /// pooled issuance path stays drift-free under either transport.
  std::uint64_t batches_issued = 0;
};

/// Where a handler's replies go. The engines own different transports, so
/// the handler emits through this narrow sink; both engines use
/// TransportSink (engine_core.hpp), which stamps the device_id/seq header
/// fields and counts the endpoint's channel stats.
class ReplySink {
 public:
  virtual ~ReplySink() = default;
  virtual void send(FrameType type, std::uint32_t session_id,
                    std::vector<std::uint8_t> payload) = 0;
};

/// The per-device server endpoint. References (database, provisioned-model
/// map, issuance family) are borrowed from the owning engine shard and must
/// outlive the handler.
class ServerSessionHandler {
 public:
  ServerSessionHandler(std::uint64_t device_id, puf::ServerDatabase& db,
                       std::map<std::uint64_t, puf::ServerModel>& provisioned,
                       const StreamFamily& issue_family, ServerPolicy policy);

  /// TTL sweep; true when the open session expired at `now`. Engines call
  /// this before serving (lockstep, each round) or from a timer (event
  /// loop); both are correct because expiry only compares `now` against the
  /// open tick.
  bool expire_if_due(std::uint64_t now);

  /// Serves one device->server frame arriving at tick `now`. Every frame
  /// gets exactly one disposition: a reply through `sink`, or a counted
  /// ignore — never a silent drop.
  void handle(const Frame& frame, std::uint64_t now, ReplySink& sink);

  // Test hook: test_async_service reads the session state across TTL
  // expiry.  xpuf-lint: allow(orphan-symbol)
  const ServerSession& session() const { return session_; }
  const ServerLedger& ledger() const { return ledger_; }
  std::uint64_t device_id() const { return device_id_; }

  /// Absolute tick the open session expires at; nullopt when none is open.
  /// Event-loop engines arm their timer wheel off this.
  std::optional<std::uint64_t> ttl_deadline() const;

 private:
  void reply(ReplySink& sink, FrameType type, std::uint32_t session_id,
             std::vector<std::uint8_t> payload);
  void nack(ReplySink& sink, std::uint32_t session_id, NackReason reason,
            std::uint16_t retry_after);
  void terminal_nack(ReplySink& sink, std::uint32_t session_id,
                     NackReason reason);
  void handle_begin(const Frame& frame, std::uint64_t now, ReplySink& sink);
  void handle_response(const Frame& frame, ReplySink& sink);
  void open_session(const Frame& frame, std::uint64_t now, ReplySink& sink);

  std::uint64_t device_id_;
  puf::ServerDatabase* db_;
  std::map<std::uint64_t, puf::ServerModel>* provisioned_;
  const StreamFamily* issue_family_;
  ServerPolicy policy_;
  ServerSession session_;
  ServerLedger ledger_;
};

}  // namespace xpuf::net
