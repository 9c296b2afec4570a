// Tests for the wire protocol (net/wire.hpp): frame layout, little-endian
// codecs, CRC behavior, every DecodeStatus branch, payload round trips, and
// the property that any single corrupted bit is detected — the contract the
// fault-injecting transport leans on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/wire.hpp"
#include "oracle/packed_bytes_ref.hpp"
#include "sim/device.hpp"
#include "sim/linear.hpp"

namespace xpuf::net {
namespace {

Frame sample_frame() {
  Frame frame;
  frame.header.type = FrameType::kResponseSubmit;
  frame.header.device_id = 0x0123456789abcdefULL;
  frame.header.session_id = 7;
  frame.header.seq = 42;
  frame.payload = {0xde, 0xad, 0xbe, 0xef};
  return frame;
}

TEST(WireCodec, PutLittleEndianByteOrder) {
  std::vector<std::uint8_t> out;
  put_u16(out, 0x1122);
  put_u32(out, 0x33445566u);
  put_u64(out, 0x0123456789abcdefULL);
  const std::vector<std::uint8_t> expected = {
      0x22, 0x11, 0x66, 0x55, 0x44, 0x33,
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01};
  EXPECT_EQ(out, expected);
}

TEST(WireCodec, ReaderRoundTripsAndBoundsChecks) {
  std::vector<std::uint8_t> out;
  put_u8(out, 0x7f);
  put_u16(out, 0xbeef);
  put_u32(out, 0xcafebabeu);
  put_u64(out, 0x1122334455667788ULL);
  ByteReader reader(out);
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  EXPECT_TRUE(reader.read_u8(a));
  EXPECT_TRUE(reader.read_u16(b));
  EXPECT_TRUE(reader.read_u32(c));
  EXPECT_TRUE(reader.read_u64(d));
  EXPECT_EQ(a, 0x7f);
  EXPECT_EQ(b, 0xbeef);
  EXPECT_EQ(c, 0xcafebabeu);
  EXPECT_EQ(d, 0x1122334455667788ULL);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_FALSE(reader.read_u8(a)) << "reads past the end must fail, not UB";
}

TEST(WireFrame, EncodeLayoutIsExactlyAsDocumented) {
  const Frame frame = sample_frame();
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  ASSERT_EQ(bytes.size(), kHeaderBytes + frame.payload.size() + kTrailerBytes);
  EXPECT_EQ(bytes[0], 0x46);  // magic 0x5846 little-endian: "F", "X"
  EXPECT_EQ(bytes[1], 0x58);
  EXPECT_EQ(bytes[2], kWireVersion);
  EXPECT_EQ(bytes[3], static_cast<std::uint8_t>(FrameType::kResponseSubmit));
  EXPECT_EQ(bytes[4], 0xef);  // device_id low byte first
  EXPECT_EQ(bytes[12], 7);    // session_id
  EXPECT_EQ(bytes[16], 42);   // seq
  EXPECT_EQ(bytes[20], 4);    // payload_len
  EXPECT_EQ(bytes[24], 0xde);
}

TEST(WireFrame, RoundTripPreservesEveryField) {
  const Frame frame = sample_frame();
  Frame out;
  ASSERT_EQ(decode_frame(encode_frame(frame), out), DecodeStatus::kOk);
  EXPECT_EQ(out.header.version, frame.header.version);
  EXPECT_EQ(out.header.type, frame.header.type);
  EXPECT_EQ(out.header.device_id, frame.header.device_id);
  EXPECT_EQ(out.header.session_id, frame.header.session_id);
  EXPECT_EQ(out.header.seq, frame.header.seq);
  EXPECT_EQ(out.payload, frame.payload);
}

TEST(WireFrame, EveryDecodeStatusBranchIsReachable) {
  const std::vector<std::uint8_t> good = encode_frame(sample_frame());
  Frame out;

  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 5);
  EXPECT_EQ(decode_frame(truncated, out), DecodeStatus::kTruncated);
  EXPECT_EQ(decode_frame({}, out), DecodeStatus::kTruncated);

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(decode_frame(bad_magic, out), DecodeStatus::kBadMagic);

  // Version/type/length corruptions re-seal the checksum so the earlier
  // checks, not the CRC, must be what rejects them.
  auto reseal = [](std::vector<std::uint8_t> bytes) {
    const std::uint32_t crc =
        crc32(bytes.data(), static_cast<std::uint64_t>(bytes.size()) - 4);
    bytes[bytes.size() - 4] = static_cast<std::uint8_t>(crc & 0xff);
    bytes[bytes.size() - 3] = static_cast<std::uint8_t>((crc >> 8) & 0xff);
    bytes[bytes.size() - 2] = static_cast<std::uint8_t>((crc >> 16) & 0xff);
    bytes[bytes.size() - 1] = static_cast<std::uint8_t>((crc >> 24) & 0xff);
    return bytes;
  };
  std::vector<std::uint8_t> bad_version = good;
  bad_version[2] = kWireVersion + 1;
  EXPECT_EQ(decode_frame(reseal(bad_version), out), DecodeStatus::kBadVersion);

  std::vector<std::uint8_t> bad_type = good;
  bad_type[3] = 0xee;
  EXPECT_EQ(decode_frame(reseal(bad_type), out), DecodeStatus::kBadType);

  std::vector<std::uint8_t> bad_length = good;
  bad_length[23] = 0xff;  // payload_len top byte: 0xff000004 > kMaxPayloadBytes
  EXPECT_EQ(decode_frame(reseal(bad_length), out), DecodeStatus::kBadLength);

  std::vector<std::uint8_t> bad_crc = good;
  bad_crc.back() ^= 0x01;
  EXPECT_EQ(decode_frame(bad_crc, out), DecodeStatus::kBadChecksum);

  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0x00);
  EXPECT_EQ(decode_frame(trailing, out), DecodeStatus::kTrailingBytes);
}

TEST(WireFrame, AnySingleBitFlipIsDetected) {
  Frame frame = sample_frame();
  frame.payload = {0x01, 0x02, 0x03};
  const std::vector<std::uint8_t> good = encode_frame(frame);
  Frame out;
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::vector<std::uint8_t> flipped = good;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(decode_frame(flipped, out), DecodeStatus::kOk)
        << "undetected flip at bit " << bit;
  }
}

TEST(WireFrame, AnyTruncationIsDetected) {
  const std::vector<std::uint8_t> good = encode_frame(sample_frame());
  Frame out;
  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    const std::vector<std::uint8_t> cut(good.begin(),
                                        good.begin() + static_cast<long>(keep));
    EXPECT_NE(decode_frame(cut, out), DecodeStatus::kOk)
        << "undetected truncation to " << keep << " bytes";
  }
}

TEST(WirePayload, ChallengeBatchRoundTripsAtAwkwardWidths) {
  for (const std::uint32_t stages : {1u, 7u, 8u, 9u, 32u, 33u, 64u, 65u, 100u}) {
    const std::size_t stride = sim::packed_words(stages);
    std::vector<sim::Challenge> batch;
    std::vector<std::uint64_t> words(5 * stride);
    for (std::uint32_t c = 0; c < 5; ++c) {
      sim::Challenge challenge(stages);
      for (std::uint32_t s = 0; s < stages; ++s)
        challenge[s] = static_cast<std::uint8_t>((c + s) % 2);
      sim::pack_challenge_into(challenge, {words.data() + c * stride, stride});
      batch.push_back(challenge);
    }
    const std::vector<std::uint8_t> payload = encode_challenge_batch(stages, words);
    // u32 count, u32 stages, then ceil(stages / 8) bytes per challenge with
    // bit i of byte i / 8 = challenge bit i.
    const std::size_t row_bytes = (stages + 7) / 8;
    ASSERT_EQ(payload.size(), 8 + 5 * row_bytes) << "stages=" << stages;
    for (std::size_t c = 0; c < 5; ++c)
      for (std::size_t i = 0; i < stages; ++i)
        ASSERT_EQ((payload[8 + c * row_bytes + i / 8] >> (i % 8)) & 1u, batch[c][i])
            << "stages=" << stages << " challenge " << c << " bit " << i;
    std::uint32_t out_stages = 0;
    std::vector<std::uint64_t> out;
    ASSERT_EQ(decode_challenge_batch(payload, out_stages, out), DecodeStatus::kOk)
        << "stages=" << stages;
    EXPECT_EQ(out_stages, stages);
    EXPECT_EQ(out, words) << "stages=" << stages;
  }
}

TEST(WirePayload, ChallengeBatchRejectsMalformedLengths) {
  std::uint32_t stages = 0;
  std::vector<std::uint64_t> out;
  EXPECT_EQ(decode_challenge_batch({1, 2}, stages, out), DecodeStatus::kBadPayload);
  // Valid header claiming 1 challenge x 8 stages but no row bytes.
  std::vector<std::uint8_t> short_rows;
  put_u32(short_rows, 1);
  put_u32(short_rows, 8);
  EXPECT_EQ(decode_challenge_batch(short_rows, stages, out), DecodeStatus::kBadPayload);
  // Stage width outside the sanity bounds.
  std::vector<std::uint8_t> huge;
  put_u32(huge, 1);
  put_u32(huge, 1u << 20);
  EXPECT_EQ(decode_challenge_batch(huge, stages, out), DecodeStatus::kBadPayload);
}

// A set bit above `stages` in a row's last byte is a second byte form of a
// challenge: the decoder rejects it instead of silently masking it off.
TEST(WirePayload, ChallengeBatchRejectsPaddingBits) {
  for (const std::uint32_t stages : {1u, 13u, 33u, 100u}) {
    SCOPED_TRACE("stages " + std::to_string(stages));
    const std::uint32_t row_bytes = (stages + 7) / 8;
    Frame frame = sample_frame();
    frame.header.type = FrameType::kChallengeBatch;
    frame.payload.clear();
    put_u32(frame.payload, 2);
    put_u32(frame.payload, stages);
    for (std::uint32_t b = 0; b < 2 * row_bytes; ++b) put_u8(frame.payload, 0);
    frame.payload[8] = 1;  // first row = challenge with stage 0 set

    Frame wire;
    ASSERT_EQ(decode_frame(encode_frame(frame), wire), DecodeStatus::kOk);
    std::uint32_t got_stages = 0;
    std::vector<std::uint64_t> words;
    ASSERT_EQ(decode_challenge_batch(wire.payload, got_stages, words), DecodeStatus::kOk);
    ASSERT_EQ(words.size(), 2 * sim::packed_words(stages));
    EXPECT_EQ(words[0], 1u);

    frame.payload.back() |= static_cast<std::uint8_t>(1u << (stages % 8));
    ASSERT_EQ(decode_frame(encode_frame(frame), wire), DecodeStatus::kOk);
    EXPECT_EQ(decode_challenge_batch(wire.payload, got_stages, words),
              DecodeStatus::kBadPayload);
  }
}

// The word-at-a-time row codec against the per-byte oracle
// (tests/oracle/packed_bytes_ref.hpp): a CHALLENGE_BATCH payload is its
// header then the oracle's rows, byte for byte, it decodes back to the same
// words, and a bit above `stages` in any row is rejected.
TEST(WirePayload, ChallengeBatchMatchesTheBytewiseOracleAtEveryWidth) {
  for (const std::uint32_t stages : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 63u, 64u, 65u, 100u, 128u}) {
    SCOPED_TRACE("stages " + std::to_string(stages));
    const std::uint32_t stride = static_cast<std::uint32_t>(sim::packed_words(stages));
    const std::uint32_t top = stages - (stride - 1) * 64;
    const std::uint32_t count = 9;
    Rng rng(stages + 1000);
    std::vector<std::uint64_t> words(count * stride);
    for (std::uint32_t at = 0; at < words.size(); at += stride) {
      for (std::uint32_t w = 0; w < stride; ++w) words[at + w] = rng.next_u64();
      if (top < 64) words[at + stride - 1] &= (1ULL << top) - 1;
    }
    std::vector<std::uint8_t> want;
    put_u32(want, count);
    put_u32(want, stages);
    for (std::uint32_t at = 0; at < words.size(); at += stride)
      oracle::append_packed_bytes_ref({words.data() + at, stride}, stages, want);
    ASSERT_EQ(encode_challenge_batch(stages, words), want);
    std::uint32_t got_stages = 0;
    std::vector<std::uint64_t> got;
    ASSERT_EQ(decode_challenge_batch(want, got_stages, got), DecodeStatus::kOk);
    EXPECT_EQ(got_stages, stages);
    EXPECT_EQ(got, words);

    if (stages % 8 == 0) continue;  // a whole last byte has no padding bit
    const std::uint8_t pad_bit = static_cast<std::uint8_t>(1u << (stages % 8));
    const std::uint32_t row_bytes = (stages + 7) / 8;
    for (const std::uint32_t row : {0u, count / 2, count - 1}) {
      std::vector<std::uint8_t> padded = want;
      padded[8 + row * row_bytes + row_bytes - 1] |= pad_bit;
      EXPECT_EQ(decode_challenge_batch(padded, got_stages, got), DecodeStatus::kBadPayload)
          << "row " << row;
    }
  }
}

TEST(WirePayload, ResponseBitsRoundTripAndReject) {
  const std::vector<std::uint8_t> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1};
  std::vector<std::uint8_t> out;
  ASSERT_EQ(decode_response_bits(encode_response_bits(bits), out),
            DecodeStatus::kOk);
  EXPECT_EQ(out, bits);
  EXPECT_EQ(decode_response_bits({9}, out), DecodeStatus::kBadPayload);
}

TEST(WirePayload, AuthResultAndNackRoundTrip) {
  AuthResultPayload result;
  result.status = AuthStatus::kApproved;
  result.mismatches = 3;
  result.challenges_used = 64;
  AuthResultPayload result_out;
  ASSERT_EQ(decode_auth_result(encode_auth_result(result), result_out),
            DecodeStatus::kOk);
  EXPECT_EQ(result_out.status, result.status);
  EXPECT_EQ(result_out.mismatches, result.mismatches);
  EXPECT_EQ(result_out.challenges_used, result.challenges_used);
  EXPECT_EQ(decode_auth_result({1}, result_out), DecodeStatus::kBadPayload);

  NackPayload nack;
  nack.reason = NackReason::kBusy;
  nack.retry_after_rounds = 12;
  NackPayload nack_out;
  ASSERT_EQ(decode_nack(encode_nack(nack), nack_out), DecodeStatus::kOk);
  EXPECT_EQ(nack_out.reason, nack.reason);
  EXPECT_EQ(nack_out.retry_after_rounds, nack.retry_after_rounds);
  EXPECT_EQ(decode_nack({}, nack_out), DecodeStatus::kBadPayload);
}

TEST(WirePayload, OversizedPayloadIsRejectedBeforeEncoding) {
  Frame frame = sample_frame();
  frame.payload.assign(kMaxPayloadBytes + 1, 0x00);
  EXPECT_THROW(encode_frame(frame), std::invalid_argument);
}

TEST(WireEnums, StringsExistForEveryValue) {
  EXPECT_TRUE(is_known_frame_type(1));
  EXPECT_FALSE(is_known_frame_type(0));
  EXPECT_FALSE(is_known_frame_type(8));
}

}  // namespace
}  // namespace xpuf::net
