#include "net/async/stream_decoder.hpp"

#include "common/metrics.hpp"
#include "net/wire.hpp"

namespace xpuf::net::async {

void FrameStreamDecoder::feed(const std::uint8_t* data, std::size_t n) {
  buffer_.insert(buffer_.end(), data, data + n);
}

std::optional<std::vector<std::uint8_t>> FrameStreamDecoder::next() {
  static Counter& resync =
      MetricsRegistry::global().counter("net.async.resync_bytes");
  for (;;) {
    const std::size_t avail = buffer_.size() - pos_;
    if (avail < kHeaderBytes) {
      compact();
      return std::nullopt;
    }
    const std::uint8_t* head = buffer_.data() + pos_;
    ByteReader reader(head, avail);
    std::uint16_t magic = 0;
    std::uint8_t version = 0, type = 0;
    std::uint64_t device_id = 0;
    std::uint32_t session_id = 0, seq = 0, payload_len = 0;
    reader.read_u16(magic);
    reader.read_u8(version);
    reader.read_u8(type);
    reader.read_u64(device_id);
    reader.read_u32(session_id);
    reader.read_u32(seq);
    reader.read_u32(payload_len);
    // A position that cannot start a frame is skipped one byte at a time;
    // version/type skew is NOT checked here — such frames still have a valid
    // boundary and decode_frame reports them as corrupt with full accounting.
    if (magic != kWireMagic || payload_len > kMaxPayloadBytes) {
      ++pos_;
      ++resync_bytes_;
      resync.add();
      continue;
    }
    const std::size_t frame_len = kHeaderBytes + payload_len + kTrailerBytes;
    if (avail < frame_len) {
      compact();
      return std::nullopt;  // boundary plausible; wait for the rest
    }
    const std::uint32_t want = crc32(head, kHeaderBytes + payload_len);
    ByteReader trailer(head + kHeaderBytes + payload_len, kTrailerBytes);
    std::uint32_t got = 0;
    trailer.read_u32(got);
    if (want != got) {
      ++pos_;
      ++resync_bytes_;
      resync.add();
      continue;
    }
    std::vector<std::uint8_t> blob(head, head + frame_len);
    pos_ += frame_len;
    compact();
    return blob;
  }
}

void FrameStreamDecoder::compact() {
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

}  // namespace xpuf::net::async
