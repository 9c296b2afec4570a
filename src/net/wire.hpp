// Versioned, length-prefixed binary wire protocol of the authentication
// service (see DESIGN.md "Service layer & wire protocol").
//
// Frame layout (all integers little-endian, fixed width):
//
//   offset  size  field
//        0     2  magic        0x5846 ("XF")
//        2     1  version      kWireVersion
//        3     1  type         FrameType
//        4     8  device_id
//       12     4  session_id
//       16     4  seq          per-connection transmission counter
//       20     4  payload_len  bytes that follow before the checksum
//       24     n  payload
//     24+n     4  crc32        over bytes [0, 24+n)
//
// Everything here goes through the explicit byte codecs below — the
// xpuf_lint `wire-portability` rule forbids memcpy of structs, host-endian
// reinterpretation, and non-fixed-width integer types in this file pair, so
// a frame encoded on any machine decodes on every other. Decode failures are
// typed (DecodeStatus) and never fatal: the transport may truncate or flip
// bits, and the session layer recovers by retransmission.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/byte_codec.hpp"
#include "common/crc32.hpp"

namespace xpuf::net {

inline constexpr std::uint16_t kWireMagic = 0x5846;  // "XF"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::uint32_t kHeaderBytes = 24;
inline constexpr std::uint32_t kTrailerBytes = 4;
/// Upper bound on payload size; larger length prefixes are rejected as
/// kBadLength before any allocation, so a corrupt length field cannot OOM.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

enum class FrameType : std::uint8_t {
  kEnrollBegin = 1,     ///< device -> server: activate provisioned enrollment
  kAuthBegin = 2,       ///< device -> server: open an authentication session
  kChallengeBatch = 3,  ///< server -> device: model-selected stable challenges
  kResponseSubmit = 4,  ///< device -> server: one-shot XOR response bits
  kAuthResult = 5,      ///< server -> device: terminal verdict
  kNack = 6,            ///< server -> device: typed rejection
  kRevoke = 7,          ///< device/admin -> server: remove the device
};

bool is_known_frame_type(std::uint8_t raw);

/// Typed server rejections. retry_after_rounds == 0 marks the NACK terminal.
enum class NackReason : std::uint8_t {
  kUnknownDevice = 1,        ///< not provisioned or already revoked
  kBusy = 2,                 ///< per-device in-flight limit reached
  kBadState = 3,             ///< frame does not fit the session state machine
  kSelectionExhausted = 4,   ///< stable-challenge issuance ran out of budget
  kRevoked = 5,              ///< device was revoked mid-flight
};

enum class AuthStatus : std::uint8_t {
  kApproved = 1,
  kDenied = 2,
  kRevokeAck = 3,
};

struct FrameHeader {
  std::uint8_t version = kWireVersion;
  FrameType type = FrameType::kNack;
  std::uint64_t device_id = 0;
  std::uint32_t session_id = 0;
  std::uint32_t seq = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated,      ///< fewer bytes than header + payload_len + checksum
  kBadMagic,
  kBadVersion,
  kBadType,
  kBadLength,      ///< payload_len exceeds kMaxPayloadBytes
  kBadChecksum,
  kTrailingBytes,  ///< extra bytes after the checksum
  kBadPayload,     ///< payload codec found malformed contents
};

// --- frame codec ------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Non-throwing decode; `out` is valid only on kOk.
DecodeStatus decode_frame(const std::vector<std::uint8_t>& bytes, Frame& out);

// --- payload codecs ---------------------------------------------------------

/// CHALLENGE_BATCH payload: u32 count, u32 stages, then count rows of
/// ceil(stages / 8) bytes, challenge bits packed LSB-first. In memory the
/// rows are the issuer's canonical packed words (sim::packed_words(stages)
/// per row, back to back in `words`); the codec converts, and decoding
/// rejects a row with a bit set above `stages` as kBadPayload.
std::vector<std::uint8_t> encode_challenge_batch(std::uint32_t stages,
                                                 const std::vector<std::uint64_t>& words);
DecodeStatus decode_challenge_batch(const std::vector<std::uint8_t>& payload,
                                    std::uint32_t& stages, std::vector<std::uint64_t>& words);

/// RESPONSE_SUBMIT payload: u32 count, then packed response bits (LSB-first).
/// Responses travel as one 0/1 byte per bit at the API boundary so the packed
/// words never cross the deterministic-parallelism rules for vector<bool>.
std::vector<std::uint8_t> encode_response_bits(
    const std::vector<std::uint8_t>& bits);
DecodeStatus decode_response_bits(const std::vector<std::uint8_t>& payload,
                                  std::vector<std::uint8_t>& out);

struct AuthResultPayload {
  AuthStatus status = AuthStatus::kDenied;
  std::uint32_t mismatches = 0;
  std::uint32_t challenges_used = 0;
};

std::vector<std::uint8_t> encode_auth_result(const AuthResultPayload& result);
DecodeStatus decode_auth_result(const std::vector<std::uint8_t>& payload,
                                AuthResultPayload& out);

struct NackPayload {
  NackReason reason = NackReason::kBadState;
  /// Rounds the client should wait before retrying; 0 means terminal.
  std::uint16_t retry_after_rounds = 0;
};

std::vector<std::uint8_t> encode_nack(const NackPayload& nack);
DecodeStatus decode_nack(const std::vector<std::uint8_t>& payload,
                         NackPayload& out);

}  // namespace xpuf::net
