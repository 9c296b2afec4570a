// Hashed timer wheel for event-loop deadlines.
//
// The engine arms thousands of coarse deadlines (client retransmits and
// session TTLs) and cancels/re-arms them constantly as traffic flows. A wheel makes arm O(1): slot = deadline % slots, each slot a
// bucket of entries. collect_due(now) walks only the slots that passed since
// the previous collection (or every slot once the gap spans a full
// rotation), extracts entries whose deadline is due, and returns them sorted
// by (deadline, arm order) — a deterministic firing order regardless of
// bucket hashing, which the manual-clock tests rely on.
//
// next_deadline is O(1): the wheel keeps every slot's earliest deadline and
// the earliest of all. Arming lowers both; a sweep recomputes the swept
// slots' minima from the entries it walks anyway, and a collect that fired
// something takes the overall minimum again from the slot minima — O(slots),
// never O(armed entries).
//
// Cancellation is lazy by design: the engine re-checks the authoritative
// deadline when a timer fires and simply re-arms if it moved (see
// DESIGN.md §Async socket service), so the wheel never needs a handle map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xpuf::net::async {

struct TimerEntry {
  std::uint64_t deadline = 0;  ///< tick at which the timer is due
  std::uint64_t key = 0;       ///< opaque engine key (connection, device, ...)
  std::uint64_t seq = 0;       ///< arm order, breaks deadline ties
};

class TimerWheel {
 public:
  explicit TimerWheel(std::size_t slots = 256);

  /// Arms one deadline. Deadlines already at/before the last collect time
  /// fire on the next collect_due call.
  void arm(std::uint64_t deadline, std::uint64_t key);

  /// Extracts every entry with deadline <= now, sorted by (deadline, seq).
  std::vector<TimerEntry> collect_due(std::uint64_t now);

  /// Earliest armed deadline, or nullopt-like sentinel (returns false) —
  /// bounds the poll timeout. O(1).
  bool next_deadline(std::uint64_t& out) const;

  std::size_t size() const { return armed_count_; }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};  ///< an empty slot's minimum

  std::vector<std::vector<TimerEntry>> slots_;
  std::vector<std::uint64_t> slot_min_;  ///< earliest deadline per slot
  std::uint64_t min_deadline_ = kNone;   ///< earliest armed deadline
  std::size_t armed_count_ = 0;
  std::uint64_t last_collect_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace xpuf::net::async
