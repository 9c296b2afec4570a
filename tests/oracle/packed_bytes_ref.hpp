// Test-side reference for the packed-row byte codec (sim::append_packed_bytes
// / sim::read_packed_bytes): one row, one byte at a time — byte b of a row is
// bits 8b .. 8b + 7 of its packed words, least-significant first. The
// production codec moves whole little-endian words per row; the store and
// wire codec tests hold its bytes to this walk at every width.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/linear.hpp"

namespace xpuf::oracle {

/// Appends the packed_bytes(stages) bytes of one packed row to `out`.
inline void append_packed_bytes_ref(std::span<const std::uint64_t> row, std::size_t stages,
                                    std::vector<std::uint8_t>& out) {
  for (std::size_t b = 0; b < sim::packed_bytes(stages); ++b)
    out.push_back(static_cast<std::uint8_t>(row[b / 8] >> (8 * (b % 8))));
}

/// Reads packed_bytes(stages) bytes into `row` (packed_words(stages) words);
/// false when the last byte has a bit set above `stages`.
inline bool read_packed_bytes_ref(const std::uint8_t* bytes, std::size_t stages,
                                  std::span<std::uint64_t> row) {
  std::fill(row.begin(), row.end(), 0);
  const std::size_t n = sim::packed_bytes(stages);
  for (std::size_t b = 0; b < n; ++b)
    row[b / 8] |= static_cast<std::uint64_t>(bytes[b]) << (8 * (b % 8));
  return stages % 8 == 0 || (bytes[n - 1] >> (stages % 8)) == 0;
}

}  // namespace xpuf::oracle
