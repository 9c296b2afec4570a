#include "puf/store/challenge_set.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf::store {

namespace {

std::uint64_t hash_row(std::span<const std::uint64_t> row) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t w : row) {
    h = (h ^ w) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 29);
}

std::uint8_t tag_of(std::uint64_t hash) { return static_cast<std::uint8_t>(0x80U | (hash >> 57)); }

/// The word with its bytes reversed: comparing these compares the word's
/// little-endian on-disk bytes lexicographically.
std::uint64_t byte_order_key(std::uint64_t w) {
  std::uint64_t r = 0;
  for (int b = 0; b < 8; ++b, w >>= 8) r = (r << 8) | (w & 0xffU);
  return r;
}

}  // namespace

ChallengeSet::ChallengeSet(std::size_t stages)
    : stages_(stages), stride_(sim::packed_words(stages)) {
  XPUF_REQUIRE(stages >= 1, "a challenge set needs at least one stage");
}

void ChallengeSet::require_key(std::span<const std::uint64_t> row) const {
  XPUF_REQUIRE(stride_ > 0 && row.size() == stride_,
               "challenge set key needs packed_words(stages) words");
  const std::size_t tail = stages_ - (stride_ - 1) * 64;
  XPUF_REQUIRE(tail == 64 || (row.back() >> tail) == 0,
               "challenge set key has bits set above its stage count");
}

std::size_t ChallengeSet::probe(std::span<const std::uint64_t> row,
                                std::uint64_t hash) const {
  XPUF_REQUIRE(!ctrl_.empty(), "probe of a set with no slots");
  const std::size_t mask = ctrl_.size() - 1;
  const std::uint8_t tag = tag_of(hash);
  for (std::size_t i = static_cast<std::size_t>(hash) & mask;; i = (i + 1) & mask)
    if (ctrl_[i] == 0 || (ctrl_[i] == tag && std::equal(row.begin(), row.end(), slot(i))))
      return i;
}

// xpuf-lint: guarded-by(require_key)
bool ChallengeSet::contains(std::span<const std::uint64_t> row) const {
  require_key(row);
  return size_ != 0 && ctrl_[probe(row, hash_row(row))] != 0;
}

// xpuf-lint: guarded-by(require_key)
bool ChallengeSet::insert(std::span<const std::uint64_t> row) {
  require_key(row);
  // At most 7/8 full, so every probe meets an empty slot.
  if ((size_ + 1) * 8 > ctrl_.size() * 7) rehash(ctrl_.empty() ? 16 : 2 * ctrl_.size());
  const std::uint64_t hash = hash_row(row);
  const std::size_t i = probe(row, hash);
  if (ctrl_[i] != 0) return false;
  ctrl_[i] = tag_of(hash);
  std::copy(row.begin(), row.end(), slot(i));
  ++size_;
  return true;
}

void ChallengeSet::reserve(std::size_t n) {
  XPUF_REQUIRE(stride_ > 0, "reserve on a set with no stage count");
  XPUF_REQUIRE(n <= std::numeric_limits<std::size_t>::max() / 16, "reserve size out of range");
  std::size_t capacity = 16;
  while (n * 8 > capacity * 7) capacity *= 2;
  if (capacity > ctrl_.size()) rehash(capacity);
}

void ChallengeSet::rehash(std::size_t capacity) {
  XPUF_REQUIRE(std::has_single_bit(capacity) && size_ * 8 <= capacity * 7,
               "rehash needs a power-of-two capacity that holds every key");
  const std::vector<std::uint64_t> old_slots =
      std::exchange(slots_, std::vector<std::uint64_t>(capacity * stride_));
  const std::vector<std::uint8_t> old_ctrl =
      std::exchange(ctrl_, std::vector<std::uint8_t>(capacity, 0));
  for (std::size_t s = 0; s < old_ctrl.size(); ++s) {
    if (old_ctrl[s] == 0) continue;
    const std::span<const std::uint64_t> row(old_slots.data() + s * stride_, stride_);
    const std::size_t i = probe(row, hash_row(row));
    ctrl_[i] = old_ctrl[s];
    std::copy(row.begin(), row.end(), slot(i));
  }
}

std::vector<std::uint64_t> ChallengeSet::sorted_rows() const {
  std::vector<std::size_t> order;
  order.reserve(size_);
  for (std::size_t s = 0; s < ctrl_.size(); ++s)
    if (ctrl_[s] != 0) order.push_back(s);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::lexicographical_compare(
        slot(a), slot(a) + stride_, slot(b), slot(b) + stride_,
        [](std::uint64_t x, std::uint64_t y) { return byte_order_key(x) < byte_order_key(y); });
  });
  std::vector<std::uint64_t> rows;
  rows.reserve(size_ * stride_);
  for (const std::size_t s : order) rows.insert(rows.end(), slot(s), slot(s) + stride_);
  return rows;
}

std::size_t ChallengeSet::heap_bytes() const {
  return slots_.capacity() * sizeof(std::uint64_t) + ctrl_.capacity();
}

}  // namespace xpuf::puf::store
