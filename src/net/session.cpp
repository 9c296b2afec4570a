#include "net/session.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace xpuf::net {

bool is_terminal(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kApproved:
    case SessionPhase::kDenied:
    case SessionPhase::kRejected:
    case SessionPhase::kFailed:
      return true;
    case SessionPhase::kIdle:
    case SessionPhase::kAwaitChallenge:
    case SessionPhase::kAwaitResult:
      return false;
  }
  return false;
}

DeviceClient::DeviceClient(const sim::XorPufChip& chip, sim::Environment env,
                           Rng rng, Transport& to_server,
                           Transport& from_server, std::uint32_t auth_sessions,
                           ClientPolicy policy, bool enroll_first,
                           bool revoke_at_end)
    : chip_(&chip),
      env_(env),
      rng_(rng),
      tx_(&to_server),
      rx_(&from_server),
      policy_(policy) {
  XPUF_REQUIRE(policy.timeout_rounds >= 1, "timeout must be at least 1 round");
  if (enroll_first) plan_.push_back(FrameType::kEnrollBegin);
  for (std::uint32_t i = 0; i < auth_sessions; ++i)
    plan_.push_back(FrameType::kAuthBegin);
  if (revoke_at_end) plan_.push_back(FrameType::kRevoke);
  XPUF_REQUIRE(!plan_.empty(), "client needs at least one scripted session");
}

std::uint64_t DeviceClient::device_id() const {
  return static_cast<std::uint64_t>(chip_->id());
}

void DeviceClient::step(std::uint32_t round) {
  static Counter& ignored =
      MetricsRegistry::global().counter("net.frames_ignored");
  // Drain the inbox even after finishing so duplicated or reordered frames
  // still in flight get consumed and the transports can reach idle.
  while (auto frame = recv_frame(*rx_, stats_)) {
    if (finished() || frame->header.device_id != device_id() ||
        frame->header.session_id != current_.session_id ||
        is_terminal(phase_) || phase_ == SessionPhase::kIdle) {
      ignored.add(1);
      continue;
    }
    handle(*frame, round);
  }
  if (finished()) return;
  if (phase_ == SessionPhase::kIdle) {
    open_next_session(round);
    return;
  }
  if (!is_terminal(phase_) && round >= deadline_round_) on_deadline(round);
}

void DeviceClient::open_next_session(std::uint32_t round) {
  static Counter& opened =
      MetricsRegistry::global().counter("net.sessions_opened");
  opened.add(1);
  const FrameType begin = plan_[plan_index_];
  current_ = SessionRecord{};
  current_.session_id = ++session_counter_;
  current_.opened_with = begin;
  pending_type_ = begin;
  pending_payload_.clear();
  // REVOKE is acknowledged directly with an AUTH_RESULT; the other session
  // openers are answered with a CHALLENGE_BATCH first.
  phase_ = begin == FrameType::kRevoke ? SessionPhase::kAwaitResult
                                       : SessionPhase::kAwaitChallenge;
  timeout_cur_ = policy_.timeout_rounds;
  if (observer_) observer_->on_session_opened(current_.session_id, round);
  transmit(round);
  arm_deadline(round, timeout_cur_);
}

void DeviceClient::transmit(std::uint32_t round) {
  (void)round;
  Frame frame;
  frame.header.type = pending_type_;
  frame.header.device_id = device_id();
  frame.header.session_id = current_.session_id;
  frame.header.seq = seq_++;
  frame.payload = pending_payload_;
  send_frame(*tx_, frame, stats_);
}

void DeviceClient::arm_deadline(std::uint32_t round, std::uint32_t wait) {
  deadline_round_ = round + (wait == 0 ? 1 : wait);
}

void DeviceClient::on_deadline(std::uint32_t round) {
  if (current_.retries >= policy_.max_retries) {
    finish_session(SessionPhase::kFailed, round);
    return;
  }
  static Counter& retries = MetricsRegistry::global().counter("net.retries");
  retries.add(1);
  ++current_.retries;
  // Exponential backoff: the await window doubles with every retransmission.
  timeout_cur_ *= 2;
  transmit(round);
  arm_deadline(round, timeout_cur_);
}

void DeviceClient::handle(const Frame& frame, std::uint32_t round) {
  static Counter& ignored =
      MetricsRegistry::global().counter("net.frames_ignored");
  switch (frame.header.type) {
    case FrameType::kChallengeBatch: {
      if (phase_ != SessionPhase::kAwaitChallenge) {
        ignored.add(1);  // duplicate batch after we already responded
        return;
      }
      std::uint32_t stages = 0;
      if (decode_challenge_batch(frame.payload, stages, rows_) !=
              DecodeStatus::kOk ||
          rows_.empty()) {
        ++stats_.corrupt;  // framing was fine but the payload is malformed
        return;            // the deadline path retransmits the begin frame
      }
      // Measure each challenge exactly once, straight from the packed rows;
      // the encoded payload is cached so retransmissions carry bit-identical
      // responses and the measurement stream position stays a pure function
      // of delivered batches.
      std::vector<std::uint8_t> bits;
      chip_->xor_responses(rows_, stages, env_, rng_, bits);
      current_.challenges_used = static_cast<std::uint32_t>(bits.size());
      pending_type_ = FrameType::kResponseSubmit;
      pending_payload_ = encode_response_bits(bits);
      phase_ = SessionPhase::kAwaitResult;
      timeout_cur_ = policy_.timeout_rounds;
      transmit(round);
      arm_deadline(round, timeout_cur_);
      return;
    }
    case FrameType::kAuthResult: {
      if (phase_ != SessionPhase::kAwaitResult) {
        ignored.add(1);
        return;
      }
      AuthResultPayload result;
      if (decode_auth_result(frame.payload, result) != DecodeStatus::kOk) {
        ++stats_.corrupt;
        return;
      }
      current_.mismatches = result.mismatches;
      if (result.challenges_used != 0)
        current_.challenges_used = result.challenges_used;
      finish_session(result.status == AuthStatus::kDenied
                         ? SessionPhase::kDenied
                         : SessionPhase::kApproved,
                     round);
      return;
    }
    case FrameType::kNack: {
      NackPayload nack;
      if (decode_nack(frame.payload, nack) != DecodeStatus::kOk) {
        ++stats_.corrupt;
        return;
      }
      if (nack.retry_after_rounds == 0) {
        finish_session(SessionPhase::kRejected, round);
        return;
      }
      // Retryable NACK (e.g. busy): wait the advertised number of rounds and
      // let the deadline path retransmit, which also enforces max_retries.
      arm_deadline(round, nack.retry_after_rounds);
      return;
    }
    default:
      ignored.add(1);  // server-bound frame types never reach the client
      return;
  }
}

void DeviceClient::finish_session(SessionPhase terminal,
                                  std::uint32_t round) {
  auto& registry = MetricsRegistry::global();
  static Counter& approved = registry.counter("net.session_approved");
  static Counter& denied = registry.counter("net.session_denied");
  static Counter& rejected = registry.counter("net.session_rejected");
  static Counter& failed = registry.counter("net.session_failed");
  switch (terminal) {
    case SessionPhase::kApproved: approved.add(1); break;
    case SessionPhase::kDenied: denied.add(1); break;
    case SessionPhase::kRejected: rejected.add(1); break;
    case SessionPhase::kFailed: failed.add(1); break;
    default: XPUF_REQUIRE(false, "finish_session needs a terminal phase");
  }
  current_.terminal = terminal;
  records_.push_back(current_);
  ++plan_index_;
  phase_ = finished() ? terminal : SessionPhase::kIdle;
  if (observer_) observer_->on_session_terminal(records_.back(), round);
}

}  // namespace xpuf::net
