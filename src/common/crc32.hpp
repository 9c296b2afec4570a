// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, init and xorout
// 0xFFFFFFFF) — the checksum of both the net/ wire frames and the puf/store
// log records.
#pragma once

#include <cstdint>

namespace xpuf {

/// CRC-32 of `size` bytes at `data`. Inputs of 64 bytes or more fold by
/// carry-less multiply (PCLMULQDQ) when the build's SIMD gate is open
/// (src/CMakeLists.txt); the tail, short inputs and the portable build take
/// slicing-by-8. Every path returns the same value. Check value:
/// crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(const std::uint8_t* data, std::uint64_t size);

}  // namespace xpuf
