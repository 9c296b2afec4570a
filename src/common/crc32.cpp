#include "common/crc32.hpp"

#include <array>
#include <cstddef>

namespace xpuf {

namespace {

/// Slicing-by-8 tables: table[0] is the classic byte table, table[s][i] the
/// crc of byte i followed by s zero bytes, so eight bytes fold per step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (std::uint32_t k = 0; k < 8; ++k)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s)
    for (std::size_t i = 0; i < 256; ++i)
      table[s][i] = (table[s - 1][i] >> 8) ^ table[0][table[s - 1][i] & 0xffu];
  return table;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::uint64_t size) {
  // Every frame and every store record is checked on the serve path (a pool
  // drain crc-checks a whole POOL record), so this folds eight bytes per
  // step through independent lookups instead of a byte chain.
  static const CrcTables table = make_crc_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  std::uint64_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(data[i]) |
                                    static_cast<std::uint32_t>(data[i + 1]) << 8 |
                                    static_cast<std::uint32_t>(data[i + 2]) << 16 |
                                    static_cast<std::uint32_t>(data[i + 3]) << 24);
    crc = table[7][lo & 0xffu] ^ table[6][(lo >> 8) & 0xffu] ^
          table[5][(lo >> 16) & 0xffu] ^ table[4][lo >> 24] ^ table[3][data[i + 4]] ^
          table[2][data[i + 5]] ^ table[1][data[i + 6]] ^ table[0][data[i + 7]];
  }
  for (; i < size; ++i) crc = table[0][(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace xpuf
