#include "common/crc32.hpp"

#if defined(__PCLMUL__)
#include <immintrin.h>
#endif

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

/// Advances the crc register `crc` (not yet inverted at the end) over
/// `size` bytes, eight per step through independent lookups.
std::uint32_t crc32_slicing(std::uint32_t crc, const std::uint8_t* data, std::uint64_t size) {
  static const CrcTables table = make_crc_tables();
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
  return crc;
}

#if defined(__PCLMUL__)

__m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// a_lo * k_lo ^ a_hi * k_hi ^ next: one 128-bit lane carried 512 or 128
/// bits forward (by the constant pair in k) onto the data it lands on.
__m128i fold(__m128i a, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       next);
}

/// Advances the crc register over `size` bytes (a multiple of 16, at least
/// 64) by carry-less multiplication: four 128-bit lanes fold 64 bytes per
/// step, collapse to one lane, and a Barrett reduction by the reflected
/// polynomial leaves the same 32-bit register the table walk would. The
/// constants are powers of x mod P for the 512- and 128-bit fold distances
/// and the final 64-bit step, then P and its Barrett quotient
/// floor(x^64 / P), all bit-reflected (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009).
std::uint32_t crc32_folded(std::uint32_t crc, const std::uint8_t* data, std::uint64_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);

  __m128i x1 = _mm_xor_si128(load128(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load128(data + 16);
  __m128i x3 = load128(data + 32);
  __m128i x4 = load128(data + 48);
  std::uint64_t at = 64;
  for (; at + 64 <= size; at += 64) {
    x1 = fold(x1, k1k2, load128(data + at));
    x2 = fold(x2, k1k2, load128(data + at + 16));
    x3 = fold(x3, k1k2, load128(data + at + 32));
    x4 = fold(x4, k1k2, load128(data + at + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; at < size; at += 16) x1 = fold(x1, k3k4, load128(data + at));

  // 128 -> 64 bits, then 64 -> 32 bits by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#endif  // __PCLMUL__

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::uint64_t size) {
  // Every frame and every store record is checked on the serve path (a pool
  // drain crc-checks a whole POOL record, a mapped model view a whole
  // REGISTER record), so long inputs fold 64 bytes per step where the host
  // has carry-less multiply; the ragged tail and short inputs take the
  // slicing-by-8 walk. Both compute the one register.
  std::uint32_t crc = 0xFFFFFFFFu;
#if defined(__PCLMUL__)
  if (size >= 64) {
    const std::uint64_t folded = size & ~std::uint64_t{15};
    crc = crc32_folded(crc, data, folded);
    data += folded;
    size -= folded;
  }
#endif
  return crc32_slicing(crc, data, size) ^ 0xFFFFFFFFu;
}

}  // namespace xpuf
