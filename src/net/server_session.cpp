#include "net/server_session.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace xpuf::net {

std::uint64_t issue_stream_key(std::uint64_t device_id,
                               std::uint32_t session_id) {
  return (device_id << 20) ^ static_cast<std::uint64_t>(session_id);
}

void ServerPolicy::require_valid() const {
  XPUF_REQUIRE(session_ttl >= 1, "session TTL must be >= 1 tick");
}

ServerSessionHandler::ServerSessionHandler(
    std::uint64_t device_id, puf::ServerDatabase& db,
    std::map<std::uint64_t, puf::ServerModel>& provisioned,
    const StreamFamily& issue_family, ServerPolicy policy)
    : device_id_(device_id),
      db_(&db),
      provisioned_(&provisioned),
      issue_family_(&issue_family),
      policy_(policy) {
  policy.require_valid();
}

bool ServerSessionHandler::expire_if_due(std::uint64_t now) {
  static Counter& expired =
      MetricsRegistry::global().counter("net.sessions_expired");
  // TTL expiry frees the in-flight slot of a session the client abandoned
  // mid-handshake; late frames for it get a terminal NACK, not a verify.
  if (session_.state == ServerSession::State::kChallengeSent &&
      now >= session_.opened_at + policy_.session_ttl) {
    session_.state = ServerSession::State::kNone;
    expired.add(1);
    ledger_.sessions_expired += 1;
    return true;
  }
  return false;
}

std::optional<std::uint64_t> ServerSessionHandler::ttl_deadline() const {
  if (session_.state != ServerSession::State::kChallengeSent)
    return std::nullopt;
  return session_.opened_at + policy_.session_ttl;
}

void ServerSessionHandler::handle(const Frame& frame, std::uint64_t now,
                                  ReplySink& sink) {
  static Counter& ignored =
      MetricsRegistry::global().counter("net.frames_ignored");
  switch (frame.header.type) {
    case FrameType::kEnrollBegin:
    case FrameType::kAuthBegin:
    case FrameType::kRevoke:
      handle_begin(frame, now, sink);
      break;
    case FrameType::kResponseSubmit:
      handle_response(frame, sink);
      break;
    default:
      ignored.add(1);  // client-bound frame types never reach the server
      ledger_.frames_ignored += 1;
      break;
  }
}

void ServerSessionHandler::reply(ReplySink& sink, FrameType type,
                                 std::uint32_t session_id,
                                 std::vector<std::uint8_t> payload) {
  ledger_.replies_sent += 1;
  sink.send(type, session_id, std::move(payload));
}

void ServerSessionHandler::nack(ReplySink& sink, std::uint32_t session_id,
                                NackReason reason, std::uint16_t retry_after) {
  static Counter& nacks = MetricsRegistry::global().counter("net.nacks_sent");
  nacks.add(1);
  ledger_.nacks_sent += 1;
  if (reason == NackReason::kBusy) ledger_.busy_nacks += 1;
  NackPayload payload;
  payload.reason = reason;
  payload.retry_after_rounds = retry_after;
  reply(sink, FrameType::kNack, session_id, encode_nack(payload));
}

void ServerSessionHandler::terminal_nack(ReplySink& sink,
                                         std::uint32_t session_id,
                                         NackReason reason) {
  // Cache the terminal NACK so duplicates of the offending frame are
  // answered idempotently instead of re-deciding.
  session_.state = ServerSession::State::kDone;
  session_.session_id = session_id;
  session_.cached_type = FrameType::kNack;
  NackPayload payload;
  payload.reason = reason;
  payload.retry_after_rounds = 0;
  session_.cached_payload = encode_nack(payload);
  nack(sink, session_id, reason, 0);
}

void ServerSessionHandler::handle_begin(const Frame& frame, std::uint64_t now,
                                        ReplySink& sink) {
  static Counter& ignored =
      MetricsRegistry::global().counter("net.frames_ignored");
  const std::uint32_t sid = frame.header.session_id;
  if (sid < session_.session_id) {
    ignored.add(1);  // stale retransmission of a superseded session
    ledger_.frames_ignored += 1;
    return;
  }
  if (sid == session_.session_id &&
      session_.state != ServerSession::State::kNone) {
    // Duplicate begin: resend whatever the session last answered with.
    reply(sink, session_.cached_type, sid, session_.cached_payload);
    return;
  }
  if (sid > session_.session_id &&
      session_.state == ServerSession::State::kChallengeSent) {
    // The previous session still holds the device's in-flight slot; tell
    // the client to come back after the TTL has had a chance to run.
    nack(sink, sid, NackReason::kBusy, policy_.busy_retry);
    return;
  }
  // sid == session_id with state kNone means the session expired and the
  // client is still retransmitting its begin; reissuing a fresh batch under
  // the same id would desynchronize replay accounting, so close it.
  if (sid == session_.session_id) {
    terminal_nack(sink, sid, NackReason::kBadState);
    return;
  }
  open_session(frame, now, sink);
}

void ServerSessionHandler::open_session(const Frame& frame, std::uint64_t now,
                                        ReplySink& sink) {
  auto& registry = MetricsRegistry::global();
  static Counter& activated = registry.counter("net.enroll_activated");
  static Counter& revocations = registry.counter("net.revocations");
  const std::uint32_t sid = frame.header.session_id;
  const auto chip_id = static_cast<std::size_t>(device_id_);

  if (frame.header.type == FrameType::kRevoke) {
    if (!db_->knows(chip_id)) {
      terminal_nack(sink, sid, NackReason::kUnknownDevice);
      return;
    }
    db_->revoke_device(chip_id);
    revocations.add(1);
    ledger_.revocations += 1;
    AuthResultPayload ack;
    ack.status = AuthStatus::kRevokeAck;
    session_.state = ServerSession::State::kDone;
    session_.session_id = sid;
    session_.cached_type = FrameType::kAuthResult;
    session_.cached_payload = encode_auth_result(ack);
    reply(sink, FrameType::kAuthResult, sid, session_.cached_payload);
    return;
  }

  if (frame.header.type == FrameType::kEnrollBegin && !db_->knows(chip_id)) {
    const auto it = provisioned_->find(device_id_);
    if (it == provisioned_->end()) {
      terminal_nack(sink, sid, NackReason::kUnknownDevice);
      return;
    }
    db_->register_device(std::move(it->second));
    provisioned_->erase(it);
    activated.add(1);
    ledger_.enroll_activated += 1;
  }
  if (!db_->knows(chip_id)) {
    // AUTH_BEGIN for a device never activated — or revoked earlier.
    terminal_nack(sink, sid, provisioned_->count(device_id_) == 0
                                 ? NackReason::kRevoked
                                 : NackReason::kUnknownDevice);
    return;
  }

  // Challenge issuance draws from a (device, session)-keyed stream so a
  // live-screened batch is a pure function of the session, not of
  // scheduling. With an issuance pool enabled the batch is instead a pure
  // function of (device, per-device issuance ordinal): the pool drains in
  // seed-deterministic order and the handler serves one device's frames
  // serially, so both properties make the lockstep and event-loop engines
  // issue identical batches for the same (device, session) pair.
  Rng issue_rng = issue_family_->stream(issue_stream_key(device_id_, sid));
  puf::ChallengeBatch batch;
  try {
    batch = db_->issue(chip_id, issue_rng);
  } catch (const NumericalError&) {
    terminal_nack(sink, sid, NackReason::kSelectionExhausted);
    return;
  }
  ledger_.batches_issued += 1;
  session_.state = ServerSession::State::kChallengeSent;
  session_.session_id = sid;
  session_.opened_at = now;
  session_.cached_type = FrameType::kChallengeBatch;
  session_.cached_payload =
      encode_challenge_batch(static_cast<std::uint32_t>(batch.stages), batch.words);
  session_.batch = std::move(batch);
  reply(sink, FrameType::kChallengeBatch, sid, session_.cached_payload);
}

void ServerSessionHandler::handle_response(const Frame& frame,
                                           ReplySink& sink) {
  static Counter& ignored =
      MetricsRegistry::global().counter("net.frames_ignored");
  const std::uint32_t sid = frame.header.session_id;
  if (sid != session_.session_id) {
    ignored.add(1);  // stale (old session) or impossible future id
    ledger_.frames_ignored += 1;
    return;
  }
  if (session_.state == ServerSession::State::kDone) {
    // Duplicate submit after the verdict: resend it, never verify twice.
    reply(sink, session_.cached_type, sid, session_.cached_payload);
    return;
  }
  if (session_.state == ServerSession::State::kNone) {
    // The session expired while the response was in flight.
    terminal_nack(sink, sid, NackReason::kBadState);
    return;
  }
  std::vector<std::uint8_t> bits;
  if (decode_response_bits(frame.payload, bits) != DecodeStatus::kOk ||
      bits.size() != session_.batch.size()) {
    // The frame checksum passed, so this is a protocol violation rather
    // than line noise — close the session instead of hanging it.
    terminal_nack(sink, sid, NackReason::kBadState);
    return;
  }
  std::vector<bool> responses;
  responses.reserve(bits.size());
  for (std::uint8_t b : bits) responses.push_back(b != 0);
  const puf::AuthenticationOutcome outcome = db_->verify(
      static_cast<std::size_t>(device_id_), session_.batch, responses);
  AuthResultPayload result;
  result.status =
      outcome.approved ? AuthStatus::kApproved : AuthStatus::kDenied;
  result.mismatches = static_cast<std::uint32_t>(outcome.mismatches);
  result.challenges_used = static_cast<std::uint32_t>(outcome.challenges_used);
  session_.state = ServerSession::State::kDone;
  session_.cached_type = FrameType::kAuthResult;
  session_.cached_payload = encode_auth_result(result);
  reply(sink, FrameType::kAuthResult, sid, session_.cached_payload);
}

}  // namespace xpuf::net
