// ChallengeSet — one device's replay ledger: the exact set of challenges
// issued to it, keyed by canonical packed rows (sim::packed_words(stages)
// words, every bit above `stages` zero; insert and contains reject anything
// else, so a challenge has exactly one key). Exact, because the zero-HD
// scheme must never reissue a challenge. Flat: one word array plus one
// control byte per slot (0 = empty, else 0x80 | the hash's top 7 bits),
// linear probing, doubled at 7/8 load — 10–21 B per 8-byte key between
// growths, ~31 B at the peak of a rehash, nothing while empty. Keys are
// server-chosen random draws, so the hash is a fixed, seedless mix. There
// is no erase: a ledger only grows, and revocation drops the whole set.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace xpuf::puf::store {

class ChallengeSet {
 public:
  ChallengeSet() = default;
  /// An empty set of `stages`-bit challenges (stages >= 1).
  explicit ChallengeSet(std::size_t stages);

  std::size_t stages() const { return stages_; }
  /// Words per key: sim::packed_words(stages()).
  std::size_t stride() const { return stride_; }
  std::size_t size() const { return size_; }

  bool contains(std::span<const std::uint64_t> row) const;
  /// Adds `row`; false when it was already present.
  bool insert(std::span<const std::uint64_t> row);
  /// Sizes the slots for `n` keys up front, so inserts up to that size
  /// never rehash.
  void reserve(std::size_t n);

  /// Every key, back to back, in ascending order of its on-disk bytes
  /// (sim::append_packed_bytes) — the order compaction writes.
  std::vector<std::uint64_t> sorted_rows() const;

  /// Heap bytes held by the slot and control arrays.
  // Test hook: test_store bounds the set's memory.  xpuf-lint: allow(orphan-symbol)
  std::size_t heap_bytes() const;

 private:
  void require_key(std::span<const std::uint64_t> row) const;
  /// The slot holding `row`, or the empty slot where it would go.
  std::size_t probe(std::span<const std::uint64_t> row, std::uint64_t hash) const;
  /// Moves every key into `capacity` slots (a power of two).
  void rehash(std::size_t capacity);
  const std::uint64_t* slot(std::size_t i) const { return slots_.data() + i * stride_; }
  std::uint64_t* slot(std::size_t i) { return slots_.data() + i * stride_; }

  std::size_t stages_ = 0;
  std::size_t stride_ = 0;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> slots_;  ///< capacity * stride words
  std::vector<std::uint8_t> ctrl_;    ///< capacity control bytes (a power of two)
};

}  // namespace xpuf::puf::store
