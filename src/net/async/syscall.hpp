// Dedicated syscall wrappers of the async socket subsystem.
//
// Every raw socket/epoll syscall and every errno inspection in the tree is
// confined to syscall.cpp (machine-checked by the xpuf_lint `raw-syscall`
// rule): the rest of net/async/ programs against these typed wrappers, which
// retry EINTR internally and fold the EAGAIN/EWOULDBLOCK and orderly-EOF
// cases into the IoStatus enum — so callers never branch on errno and can
// never forget the partial-read/partial-write cases (IoResult::bytes is
// authoritative, not the requested length).
//
// Accounting: sys_read/sys_write count every byte moved into the global
// net.async.bytes_read / net.async.bytes_written counters. On localhost, at
// quiescence, the two totals must be equal — the byte-conservation audit the
// socket bench enforces.
//
// All sockets are created nonblocking + close-on-exec. Fd is the RAII owner;
// descriptors never leak on error paths (the GCC -fanalyzer CI job sweeps
// this TU).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace xpuf::net::async {

/// RAII file descriptor. Movable, not copyable; close is best-effort (a
/// failed close on an already-broken socket is not recoverable anyway).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { close(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

enum class IoStatus : std::uint8_t {
  kOk = 0,      ///< made progress (see IoResult::bytes)
  kWouldBlock,  ///< EAGAIN/EWOULDBLOCK/EINPROGRESS — wait for readiness
  kEof,         ///< orderly peer shutdown (read returned 0)
  kError,       ///< anything else; IoResult::error carries the errno value
};

struct IoResult {
  IoStatus status = IoStatus::kError;
  std::size_t bytes = 0;  ///< bytes actually moved (may be < requested)
  int error = 0;          ///< errno value when status == kError, else 0
};

// --- socket construction ----------------------------------------------------

/// Nonblocking localhost TCP listener. `port` 0 binds an ephemeral port; the
/// actual bound port is written back. Invalid Fd on failure.
Fd sys_listen_tcp_localhost(std::uint16_t& port, int backlog);

/// Nonblocking Unix-domain stream listener at `path` (unlinked first).
Fd sys_listen_unix(const std::string& path, int backlog);

/// Nonblocking TCP socket with a connect to 127.0.0.1:`port` already
/// initiated. status kOk = connected, kWouldBlock = in progress (wait for
/// writability, then check sys_socket_error), kError = failed outright.
std::pair<Fd, IoStatus> sys_connect_tcp_localhost(std::uint16_t port);

/// Same for a Unix-domain stream socket.
std::pair<Fd, IoStatus> sys_connect_unix(const std::string& path);

/// Nonblocking connected Unix stream pair (tests drive transports over this
/// without a listener).
bool sys_socketpair(Fd& a, Fd& b);

/// Pending SO_ERROR of a socket (0 when the deferred connect succeeded).
int sys_socket_error(const Fd& fd);

// --- data plane -------------------------------------------------------------

/// One read(2) attempt, EINTR retried. kOk with bytes > 0, kEof on orderly
/// shutdown, kWouldBlock when drained. Counts net.async.bytes_read.
IoResult sys_read(const Fd& fd, std::uint8_t* buf, std::size_t n);

/// One write(2) attempt, EINTR retried; bytes may be short of n (caller
/// keeps the tail buffered). Counts net.async.bytes_written.
IoResult sys_write(const Fd& fd, const std::uint8_t* buf, std::size_t n);

/// One accept(2); kOk carries the nonblocking connection fd, kWouldBlock
/// means the backlog is drained.
struct AcceptResult {
  Fd fd;
  IoStatus status = IoStatus::kError;
};
AcceptResult sys_accept(const Fd& listen_fd);

// --- epoll ------------------------------------------------------------------

/// Readiness of one registered key, folded out of the raw epoll event mask.
struct ReadyEvent {
  std::uint64_t key = 0;
  bool readable = false;
  bool writable = false;
  bool hangup = false;  ///< EPOLLHUP/EPOLLERR/EPOLLRDHUP — drain then close
};

Fd sys_epoll_create();

/// Registers `fd` edge-triggered for read+write readiness under `key`.
bool sys_epoll_add(const Fd& epoll_fd, int fd, std::uint64_t key);
bool sys_epoll_del(const Fd& epoll_fd, int fd);

/// Waits up to timeout_ms (0 = poll, EINTR retried) and appends ready
/// events to `out`. Returns the number appended.
std::size_t sys_epoll_wait(const Fd& epoll_fd, int timeout_ms,
                           std::vector<ReadyEvent>& out);

// --- process limits ---------------------------------------------------------

/// Best-effort RLIMIT_NOFILE raise toward `want` descriptors (capped at the
/// hard limit). Returns the resulting soft limit — callers decide whether
/// the fleet fits.
std::size_t sys_raise_nofile(std::size_t want);

}  // namespace xpuf::net::async
