// Injectable tick source of the event-loop engine.
//
// The async engine runs the same round-based protocol state machines as the
// lockstep engine, but its "round" is a clock tick rather than a full-RTT
// lockstep round (see ClientPolicy in net/session.hpp for why the two
// domains need different timeout sizes). Everything time-dependent —
// retransmit deadlines and session TTLs — reads ticks through this
// interface, so tests substitute a manual clock (test_async_service) and
// replay the exact deadline arithmetic deterministically, while production
// uses WallClock over the monotonic Timer.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/timer.hpp"

namespace xpuf::net::async {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic tick counter (never decreases between calls).
  virtual std::uint64_t ticks() = 0;

  /// Milliseconds until `tick` is reached, for sizing an epoll_wait timeout.
  /// Returns 0 when `tick` is already due.
  virtual double millis_until(std::uint64_t tick) = 0;
};

/// Wall clock: one tick per `tick_seconds` of monotonic time (default 1 ms).
class WallClock final : public Clock {
 public:
  explicit WallClock(double tick_seconds = 1e-3)
      : tick_seconds_(tick_seconds) {}

  std::uint64_t ticks() override {
    const double t = timer_.seconds() / tick_seconds_;
    return t <= 0.0 ? 0 : static_cast<std::uint64_t>(t);
  }

  double millis_until(std::uint64_t tick) override {
    const double target_s = static_cast<double>(tick) * tick_seconds_;
    const double remain_s = target_s - timer_.seconds();
    return remain_s <= 0.0 ? 0.0 : remain_s * 1e3;
  }

 private:
  Timer timer_;
  double tick_seconds_;
};

}  // namespace xpuf::net::async
