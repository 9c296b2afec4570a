// The one CRC-32 (common/crc32.hpp) behind wire frames and store records:
// the IEEE check value and a bitwise oracle at every length through 1 KiB
// and 16 start alignments, then random buffers up to 64 KiB, so neither the
// carry-less-multiply fold (inputs of 64 B or more, where the host has it)
// nor the slicing-by-8 walk (the tail and short inputs) drifts from the
// definition the frames and the stores written before them were
// checksummed with.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"

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
  std::vector<std::uint8_t> buf(1024 + 16);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 167u + 13u);
  for (std::size_t start = 0; start < 16; ++start)
    for (std::uint64_t len = 0; len <= 1024; ++len)
      ASSERT_EQ(crc32(buf.data() + start, len), crc32_bitwise(buf.data() + start, len))
          << "start " << start << " length " << len;
}

TEST(Crc32, MatchesTheBitwiseOracleOnRandomBuffersUpTo64KiB) {
  Rng rng(0x0c4c32);
  std::vector<std::uint8_t> buf(65536 + 16);
  for (int trial = 0; trial < 64; ++trial) {
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint64_t start = rng.next_u64() % 16;
    // Every fourth length is the whole 64 KiB; the rest spread over it.
    const std::uint64_t len = trial % 4 == 0 ? 65536 : rng.next_u64() % 65537;
    ASSERT_EQ(crc32(buf.data() + start, len), crc32_bitwise(buf.data() + start, len))
        << "trial " << trial << " start " << start << " length " << len;
  }
}

}  // namespace
}  // namespace xpuf
