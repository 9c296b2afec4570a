// Incremental frame delimiter for byte streams.
//
// TCP delivers bytes, not frames: a read may end mid-header, mid-payload, or
// carry three frames at once. FrameStreamDecoder accumulates bytes and emits
// one complete, checksum-valid frame BLOB at a time — it only delimits
// (magic + bounded length + CRC); semantic decoding stays in decode_frame via
// recv_frame, so corrupt-frame accounting is identical for pipe and socket
// transports.
//
// Invariance contract (proved by tests/test_stream_decoder.cpp): the
// sequence of emitted blobs is a pure function of the cumulative byte
// sequence, independent of how feed() chunks it — byte-at-a-time dribble and
// one giant write produce identical output.
//
// Resync: a byte position that cannot start a valid frame (bad magic,
// oversized length, bad CRC) is skipped one byte at a time, counted in
// net.async.resync_bytes, until a valid frame boundary is found. Memory is
// bounded by kHeaderBytes + kMaxPayloadBytes + kTrailerBytes plus one read
// chunk, because an oversized length field is rejected before buffering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace xpuf::net::async {

class FrameStreamDecoder {
 public:
  /// Appends raw stream bytes.
  void feed(const std::uint8_t* data, std::size_t n);

  /// Extracts the next complete frame blob (header + payload + checksum,
  /// ready for decode_frame), or nullopt when more bytes are needed.
  std::optional<std::vector<std::uint8_t>> next();

  /// True when no undelivered bytes are buffered (quiescence check).
  bool empty() const { return pos_ >= buffer_.size(); }

  /// Bytes skipped hunting for a frame boundary (lifetime total).
  // Test hook: test_stream_decoder audits resync accounting per
  // decoder.  xpuf-lint: allow(orphan-symbol)
  std::uint64_t resync_bytes() const { return resync_bytes_; }

 private:
  void compact();

  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;  ///< consumed prefix of buffer_
  std::uint64_t resync_bytes_ = 0;
};

}  // namespace xpuf::net::async
