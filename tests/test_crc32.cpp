// The one CRC-32 (common/crc32.hpp) behind wire frames and store records:
// the IEEE check value and a bitwise oracle at every short length and start
// alignment, so the slicing-by-8 folding never drifts from the definition
// the frames and the stores written before it were checksummed with.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc32.hpp"

namespace xpuf {
namespace {

/// The definition: reflected polynomial 0xEDB88320, one bit at a time.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::uint64_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint64_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check, sizeof(check)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesTheBitwiseOracleAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> buf(64 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 167u + 13u);
  for (std::size_t start = 0; start < 8; ++start)
    for (std::uint64_t len = 0; len <= 64; ++len)
      EXPECT_EQ(crc32(buf.data() + start, len), crc32_bitwise(buf.data() + start, len))
          << "start " << start << " length " << len;
}

}  // namespace
}  // namespace xpuf
