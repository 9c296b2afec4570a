#include "net/async/timer_wheel.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace xpuf::net::async {

TimerWheel::TimerWheel(std::size_t slots) : slots_(slots), slot_min_(slots, kNone) {
  XPUF_REQUIRE(slots > 0, "timer wheel needs at least one slot");
}

void TimerWheel::arm(std::uint64_t deadline, std::uint64_t key) {
  TimerEntry entry;
  entry.deadline = deadline;
  entry.key = key;
  entry.seq = next_seq_++;
  // Already-due deadlines are hashed at the collection cursor so the next
  // collect_due (which always sweeps the cursor slot) picks them up without
  // waiting a full rotation.
  const std::uint64_t slot_tick = std::max(deadline, last_collect_);
  const auto slot = static_cast<std::size_t>(slot_tick % slots_.size());
  slots_[slot].push_back(entry);
  slot_min_[slot] = std::min(slot_min_[slot], deadline);
  min_deadline_ = std::min(min_deadline_, deadline);
  ++armed_count_;
}

std::vector<TimerEntry> TimerWheel::collect_due(std::uint64_t now) {
  std::vector<TimerEntry> due;
  if (now < last_collect_) now = last_collect_;  // clocks are monotonic
  if (armed_count_ > 0) {
    // Sweep the cursor slot plus every slot a tick in (last_collect_, now]
    // can hash to; a gap of a full rotation or more means every slot.
    const std::uint64_t slot_count = slots_.size();
    const std::uint64_t span = std::min(now - last_collect_, slot_count);
    for (std::uint64_t i = 0; i <= span; ++i) {
      const auto slot = static_cast<std::size_t>((last_collect_ + i) % slot_count);
      auto& bucket = slots_[slot];
      std::uint64_t left = kNone;
      for (std::size_t j = 0; j < bucket.size();) {
        if (bucket[j].deadline <= now) {
          due.push_back(bucket[j]);
          bucket[j] = bucket.back();
          bucket.pop_back();
          --armed_count_;
        } else {
          left = std::min(left, bucket[j].deadline);
          ++j;
        }
      }
      slot_min_[slot] = left;
    }
    // Whatever fired included the earliest deadline, so the minimum moves
    // to the earliest slot minimum; a collect that fired nothing keeps it.
    if (!due.empty()) min_deadline_ = *std::min_element(slot_min_.begin(), slot_min_.end());
  }
  last_collect_ = now;
  std::sort(due.begin(), due.end(),
            [](const TimerEntry& a, const TimerEntry& b) {
              return a.deadline != b.deadline ? a.deadline < b.deadline
                                              : a.seq < b.seq;
            });
  return due;
}

bool TimerWheel::next_deadline(std::uint64_t& out) const {
  if (armed_count_ == 0) return false;
  out = min_deadline_;
  return true;
}

}  // namespace xpuf::net::async
