// Little-endian byte-order codec shared by the net/ wire frames and the
// puf/store log records: the only sanctioned way an integer enters or
// leaves either format, so a frame or a store written on any machine reads
// back on every other. Inline, so the writers compile to plain stores. The
// xpuf_lint wire-portability rule keeps this file free of type punning and
// platform-width integers, and the wire-pairing pass checks every writer
// here against its bounds-checked reader and both codecs' field sequences
// against these widths.
#pragma once

#include <cstdint>
#include <vector>

namespace xpuf {

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xffu));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xffu));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (std::uint32_t shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (std::uint32_t shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
}

/// Bounds-checked little-endian cursor. Every read_* returns false instead
/// of walking past the end, so a truncated frame or record surfaces as a
/// typed decode status, never UB.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::uint64_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), static_cast<std::uint64_t>(bytes.size())) {}

  bool read_u8(std::uint8_t& v);
  bool read_u16(std::uint16_t& v);
  bool read_u32(std::uint32_t& v);
  bool read_u64(std::uint64_t& v);
  bool read_bytes(std::uint64_t n, std::vector<std::uint8_t>& out);
  bool skip(std::uint64_t n);

  std::uint64_t position() const { return pos_; }
  std::uint64_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
};

inline bool ByteReader::read_u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = data_[pos_++];
  return true;
}

inline bool ByteReader::read_u16(std::uint16_t& v) {
  if (remaining() < 2) return false;
  v = static_cast<std::uint16_t>(static_cast<std::uint16_t>(data_[pos_]) |
                                 (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return true;
}

inline bool ByteReader::read_u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = 0;
  for (std::uint32_t b = 0; b < 4; ++b)
    v |= static_cast<std::uint32_t>(data_[pos_ + b]) << (8 * b);
  pos_ += 4;
  return true;
}

inline bool ByteReader::read_u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = 0;
  for (std::uint32_t b = 0; b < 8; ++b)
    v |= static_cast<std::uint64_t>(data_[pos_ + b]) << (8 * b);
  pos_ += 8;
  return true;
}

inline bool ByteReader::read_bytes(std::uint64_t n, std::vector<std::uint8_t>& out) {
  if (remaining() < n) return false;
  out.assign(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return true;
}

inline bool ByteReader::skip(std::uint64_t n) {
  if (remaining() < n) return false;
  pos_ += n;
  return true;
}

}  // namespace xpuf
