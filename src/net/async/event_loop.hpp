// Epoll event loop: edge-triggered readiness dispatch plus a timer wheel.
//
// One loop owns one epoll instance. Handlers register per-fd and receive
// folded readiness events (readable/writable/hangup); registration is
// edge-triggered for BOTH directions, so a handler must empty its fd's
// receive queue on every wakeup — the SocketTransport pump stops at the
// first short read, which proves it empty, or reads to EOF on a hangup.
// Deadlines go through the TimerWheel and fire via a single timer callback
// keyed by an opaque engine key; the loop reads time only through the
// injected Clock, so tests drive it with a manual clock and the firing order is
// reproducible tick-for-tick.
//
// Single-threaded by contract (the async engine multiplexes thousands of
// connections on one lane; determinism comes from per-device purity, not
// locks) — nothing here is thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/async/clock.hpp"
#include "net/async/syscall.hpp"
#include "net/async/timer_wheel.hpp"

namespace xpuf::net::async {

/// Per-fd readiness callback target.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void on_ready(bool readable, bool writable, bool hangup) = 0;
};

class EventLoop {
 public:
  /// `clock` must outlive the loop.
  explicit EventLoop(Clock& clock, std::size_t wheel_slots = 256);

  bool valid() const { return epoll_.valid(); }
  std::uint64_t now() { return clock_->ticks(); }

  /// Registers `fd` (edge-triggered, read+write) with `handler`, which must
  /// stay alive until remove(). Returns false when epoll rejects the fd.
  bool add(int fd, EventHandler* handler);
  void remove(int fd);

  /// Arms `key` to fire at tick `deadline` through the timer handler.
  void arm_timer(std::uint64_t deadline, std::uint64_t key);
  void set_timer_handler(std::function<void(std::uint64_t key, std::uint64_t now)> fn) {
    timer_handler_ = std::move(fn);
  }

  /// One iteration: wait for readiness (bounded by `max_wait_ms` and the
  /// next armed deadline), dispatch fd handlers, then fire due timers.
  /// Returns the number of fd events dispatched.
  std::size_t poll(int max_wait_ms);

 private:
  Clock* clock_;
  Fd epoll_;
  TimerWheel wheel_;
  std::map<int, EventHandler*> handlers_;
  std::function<void(std::uint64_t, std::uint64_t)> timer_handler_;
  std::vector<ReadyEvent> events_;  ///< reused across polls
};

}  // namespace xpuf::net::async
