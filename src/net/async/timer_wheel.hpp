// Hashed timer wheel for event-loop deadlines.
//
// The engine arms thousands of coarse deadlines (client retransmits and
// session TTLs) and cancels/re-arms them constantly as traffic flows. A wheel makes arm O(1): slot = deadline % slots, each slot a
// bucket of entries. collect_due(now) walks only the slots that passed since
// the previous collection (or every slot once the gap spans a full
// rotation), extracts entries whose deadline is due, and returns them sorted
// by (deadline, arm order) — a deterministic firing order regardless of
// bucket hashing, which the ManualClock tests rely on.
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
  /// bounds the poll timeout.
  bool next_deadline(std::uint64_t& out) const;

  bool armed() const { return armed_count_ > 0; }
  std::size_t size() const { return armed_count_; }

 private:
  std::vector<std::vector<TimerEntry>> slots_;
  std::size_t armed_count_ = 0;
  std::uint64_t last_collect_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace xpuf::net::async
