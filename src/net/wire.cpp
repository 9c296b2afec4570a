#include "net/wire.hpp"

#include <span>

#include "common/error.hpp"
#include "sim/linear.hpp"

namespace xpuf::net {

bool is_known_frame_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kEnrollBegin) &&
         raw <= static_cast<std::uint8_t>(FrameType::kRevoke);
}

// --- frame codec ------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  XPUF_REQUIRE(frame.payload.size() <= kMaxPayloadBytes,
               "frame payload exceeds the wire limit");
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + frame.payload.size() + kTrailerBytes);
  put_u16(out, kWireMagic);
  put_u8(out, frame.header.version);
  put_u8(out, static_cast<std::uint8_t>(frame.header.type));
  put_u64(out, frame.header.device_id);
  put_u32(out, frame.header.session_id);
  put_u32(out, frame.header.seq);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  put_u32(out, crc32(out.data(), out.size()));
  return out;
}

DecodeStatus decode_frame(const std::vector<std::uint8_t>& bytes, Frame& out) {
  ByteReader reader(bytes);
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint32_t payload_len = 0;
  if (!reader.read_u16(magic)) return DecodeStatus::kTruncated;
  if (magic != kWireMagic) return DecodeStatus::kBadMagic;
  if (!reader.read_u8(version)) return DecodeStatus::kTruncated;
  if (version != kWireVersion) return DecodeStatus::kBadVersion;
  if (!reader.read_u8(type)) return DecodeStatus::kTruncated;
  if (!is_known_frame_type(type)) return DecodeStatus::kBadType;
  if (!reader.read_u64(out.header.device_id)) return DecodeStatus::kTruncated;
  if (!reader.read_u32(out.header.session_id)) return DecodeStatus::kTruncated;
  if (!reader.read_u32(out.header.seq)) return DecodeStatus::kTruncated;
  if (!reader.read_u32(payload_len)) return DecodeStatus::kTruncated;
  if (payload_len > kMaxPayloadBytes) return DecodeStatus::kBadLength;
  if (!reader.read_bytes(payload_len, out.payload)) return DecodeStatus::kTruncated;
  std::uint32_t stated_crc = 0;
  const std::uint64_t covered = reader.position();
  if (!reader.read_u32(stated_crc)) return DecodeStatus::kTruncated;
  if (reader.remaining() != 0) return DecodeStatus::kTrailingBytes;
  if (crc32(bytes.data(), covered) != stated_crc) return DecodeStatus::kBadChecksum;
  out.header.version = version;
  out.header.type = static_cast<FrameType>(type);
  return DecodeStatus::kOk;
}

// --- payload codecs ---------------------------------------------------------

namespace {

void pack_bits(std::vector<std::uint8_t>& out, const std::uint8_t* bits,
               std::uint32_t count) {
  for (std::uint32_t base = 0; base < count; base += 8) {
    std::uint8_t byte = 0;
    for (std::uint32_t b = 0; b < 8 && base + b < count; ++b)
      if (bits[base + b] != 0) byte = static_cast<std::uint8_t>(byte | (1u << b));
    out.push_back(byte);
  }
}

bool unpack_bits(ByteReader& reader, std::uint32_t count,
                 std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> packed;
  if (!reader.read_bytes(sim::packed_bytes(count), packed)) return false;
  out.resize(count);
  for (std::uint32_t i = 0; i < count; ++i)
    out[i] = static_cast<std::uint8_t>((packed[i / 8] >> (i % 8)) & 1u);
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_challenge_batch(std::uint32_t stages,
                                                 const std::vector<std::uint64_t>& words) {
  XPUF_REQUIRE(stages > 0, "a challenge batch needs at least one stage");
  const std::uint64_t stride = sim::packed_words(stages);
  XPUF_REQUIRE(words.size() % stride == 0, "challenge rows need packed_words(stages) words");
  const std::uint64_t count = words.size() / stride;
  std::vector<std::uint8_t> out;
  out.reserve(8 + count * sim::packed_bytes(stages));
  put_u32(out, static_cast<std::uint32_t>(count));
  put_u32(out, stages);
  sim::append_packed_bytes(words, stages, out);
  return out;
}

DecodeStatus decode_challenge_batch(const std::vector<std::uint8_t>& payload,
                                    std::uint32_t& stages, std::vector<std::uint64_t>& words) {
  ByteReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.read_u32(count)) return DecodeStatus::kBadPayload;
  if (!reader.read_u32(stages)) return DecodeStatus::kBadPayload;
  if (stages == 0 || stages > 4096) return DecodeStatus::kBadPayload;
  const std::uint64_t row_bytes = sim::packed_bytes(stages);
  if (static_cast<std::uint64_t>(count) * row_bytes != reader.remaining())
    return DecodeStatus::kBadPayload;
  words.resize(count * sim::packed_words(stages));
  return sim::read_packed_bytes(payload.data() + reader.position(), stages, words)
             ? DecodeStatus::kOk
             : DecodeStatus::kBadPayload;
}

std::vector<std::uint8_t> encode_response_bits(
    const std::vector<std::uint8_t>& bits) {
  std::vector<std::uint8_t> out;
  const std::uint32_t count = static_cast<std::uint32_t>(bits.size());
  out.reserve(4 + sim::packed_bytes(count));
  put_u32(out, count);
  pack_bits(out, bits.data(), count);
  return out;
}

DecodeStatus decode_response_bits(const std::vector<std::uint8_t>& payload,
                                  std::vector<std::uint8_t>& out) {
  ByteReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.read_u32(count)) return DecodeStatus::kBadPayload;
  if (count > kMaxPayloadBytes) return DecodeStatus::kBadPayload;
  if (sim::packed_bytes(count) != reader.remaining()) return DecodeStatus::kBadPayload;
  if (!unpack_bits(reader, count, out)) return DecodeStatus::kBadPayload;
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_auth_result(const AuthResultPayload& result) {
  std::vector<std::uint8_t> out;
  out.reserve(9);
  put_u8(out, static_cast<std::uint8_t>(result.status));
  put_u32(out, result.mismatches);
  put_u32(out, result.challenges_used);
  return out;
}

DecodeStatus decode_auth_result(const std::vector<std::uint8_t>& payload,
                                AuthResultPayload& out) {
  ByteReader reader(payload);
  std::uint8_t status = 0;
  if (!reader.read_u8(status)) return DecodeStatus::kBadPayload;
  if (status < static_cast<std::uint8_t>(AuthStatus::kApproved) ||
      status > static_cast<std::uint8_t>(AuthStatus::kRevokeAck))
    return DecodeStatus::kBadPayload;
  if (!reader.read_u32(out.mismatches)) return DecodeStatus::kBadPayload;
  if (!reader.read_u32(out.challenges_used)) return DecodeStatus::kBadPayload;
  if (reader.remaining() != 0) return DecodeStatus::kBadPayload;
  out.status = static_cast<AuthStatus>(status);
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_nack(const NackPayload& nack) {
  std::vector<std::uint8_t> out;
  out.reserve(3);
  put_u8(out, static_cast<std::uint8_t>(nack.reason));
  put_u16(out, nack.retry_after_rounds);
  return out;
}

DecodeStatus decode_nack(const std::vector<std::uint8_t>& payload,
                         NackPayload& out) {
  ByteReader reader(payload);
  std::uint8_t reason = 0;
  if (!reader.read_u8(reason)) return DecodeStatus::kBadPayload;
  if (reason < static_cast<std::uint8_t>(NackReason::kUnknownDevice) ||
      reason > static_cast<std::uint8_t>(NackReason::kRevoked))
    return DecodeStatus::kBadPayload;
  if (!reader.read_u16(out.retry_after_rounds)) return DecodeStatus::kBadPayload;
  if (reader.remaining() != 0) return DecodeStatus::kBadPayload;
  out.reason = static_cast<NackReason>(reason);
  return DecodeStatus::kOk;
}

}  // namespace xpuf::net
