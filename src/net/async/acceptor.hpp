// Listener + bounded-accept policy.
//
// The Acceptor owns the listening socket and drains its backlog on readiness.
// Admission is bounded: the engine passes a sink that refuses connections
// beyond its connection cap, and every refused connection receives a typed
// busy NACK frame (device_id 0 — no session exists yet) before the socket is
// closed, counted in net.async.accept_overflow. Overload therefore degrades
// into explicit, client-visible backpressure — never a silent drop (the
// kernel backlog itself is sized by the listen() parameter).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/async/syscall.hpp"

namespace xpuf::net::async {

class Acceptor {
 public:
  /// Wraps an already-listening socket (from sys_listen_tcp_localhost or
  /// sys_listen_unix). `busy_retry_ticks` is advertised in overflow NACKs.
  Acceptor(Fd listen_fd, std::uint16_t busy_retry_ticks)
      : listen_fd_(std::move(listen_fd)), busy_retry_ticks_(busy_retry_ticks) {}

  bool valid() const { return listen_fd_.valid(); }
  int fd() const { return listen_fd_.get(); }
  void close() { listen_fd_.close(); }

  /// Accepts until the backlog drains. `admit` takes ownership (moves from
  /// the reference) and returns true, or leaves the fd untouched and returns
  /// false (at capacity) — refused sockets get the busy NACK + close
  /// treatment. Returns the number of connections admitted.
  std::size_t drain(const std::function<bool(Fd&)>& admit);

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t overflowed() const { return overflowed_; }

 private:
  void refuse(Fd fd);

  Fd listen_fd_;
  std::uint16_t busy_retry_ticks_;
  std::uint64_t accepted_ = 0;
  std::uint64_t overflowed_ = 0;
};

}  // namespace xpuf::net::async
