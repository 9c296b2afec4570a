// The ONLY translation unit in the tree allowed to touch raw socket/epoll
// syscalls and errno (xpuf_lint rule `raw-syscall`). Everything here retries
// EINTR, maps EAGAIN-family errnos to IoStatus::kWouldBlock, and returns
// typed results — callers never see errno.
#include "net/async/syscall.hpp"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/metrics.hpp"

namespace xpuf::net::async {

namespace {

bool would_block(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINPROGRESS;
}

Fd make_stream_socket(int domain) {
  const int fd =
      ::socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  return Fd(fd);
}

sockaddr_in localhost_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

bool unix_addr(const std::string& path, sockaddr_un& addr) {
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return false;
  addr = sockaddr_un{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

void Fd::close() {
  if (fd_ >= 0) {
    // EINTR on close is unrecoverable by retry on Linux (the fd is freed
    // regardless); best effort is the correct policy.
    ::close(fd_);
    fd_ = -1;
  }
}

Fd sys_listen_tcp_localhost(std::uint16_t& port, int backlog) {
  Fd fd = make_stream_socket(AF_INET);
  if (!fd.valid()) return Fd();
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = localhost_addr(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    return Fd();
  if (::listen(fd.get(), backlog) != 0) return Fd();
  // Report the kernel-chosen port back for ephemeral binds.
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    return Fd();
  port = ntohs(bound.sin_port);
  return fd;
}

Fd sys_listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  if (!unix_addr(path, addr)) return Fd();
  ::unlink(path.c_str());  // stale socket file from a previous run
  Fd fd = make_stream_socket(AF_UNIX);
  if (!fd.valid()) return Fd();
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    return Fd();
  if (::listen(fd.get(), backlog) != 0) return Fd();
  return fd;
}

std::pair<Fd, IoStatus> sys_connect_tcp_localhost(std::uint16_t port) {
  Fd fd = make_stream_socket(AF_INET);
  if (!fd.valid()) return {Fd(), IoStatus::kError};
  const sockaddr_in addr = localhost_addr(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) == 0)
    return {std::move(fd), IoStatus::kOk};
  if (would_block(errno)) return {std::move(fd), IoStatus::kWouldBlock};
  return {Fd(), IoStatus::kError};
}

std::pair<Fd, IoStatus> sys_connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (!unix_addr(path, addr)) return {Fd(), IoStatus::kError};
  Fd fd = make_stream_socket(AF_UNIX);
  if (!fd.valid()) return {Fd(), IoStatus::kError};
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) == 0)
    return {std::move(fd), IoStatus::kOk};
  if (would_block(errno)) return {std::move(fd), IoStatus::kWouldBlock};
  return {Fd(), IoStatus::kError};
}

bool sys_socketpair(Fd& a, Fd& b) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   fds) != 0)
    return false;
  a = Fd(fds[0]);
  b = Fd(fds[1]);
  return true;
}

int sys_socket_error(const Fd& fd) {
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0)
    return errno;
  return err;
}

IoResult sys_read(const Fd& fd, std::uint8_t* buf, std::size_t n) {
  // Byte-conservation ledger: every byte written on one end of a localhost
  // socket is eventually read on the other, so at quiescence the two totals
  // must match — the audit bench_service_load --transport socket enforces.
  static Counter& bytes_read_total =
      MetricsRegistry::global().counter("net.async.bytes_read");
  for (;;) {
    const ssize_t got = ::read(fd.get(), buf, n);
    if (got > 0) {
      const auto bytes = static_cast<std::size_t>(got);
      bytes_read_total.add(bytes);
      return {IoStatus::kOk, bytes, 0};
    }
    if (got == 0) return {IoStatus::kEof, 0, 0};
    if (errno == EINTR) continue;
    if (would_block(errno)) return {IoStatus::kWouldBlock, 0, 0};
    return {IoStatus::kError, 0, errno};
  }
}

IoResult sys_write(const Fd& fd, const std::uint8_t* buf, std::size_t n) {
  static Counter& bytes_written_total =
      MetricsRegistry::global().counter("net.async.bytes_written");
  for (;;) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE, not
    // kill the process with SIGPIPE.
    const ssize_t put = ::send(fd.get(), buf, n, MSG_NOSIGNAL);
    if (put >= 0) {
      const auto bytes = static_cast<std::size_t>(put);
      bytes_written_total.add(bytes);
      return {IoStatus::kOk, bytes, 0};
    }
    if (errno == EINTR) continue;
    if (would_block(errno)) return {IoStatus::kWouldBlock, 0, 0};
    return {IoStatus::kError, 0, errno};
  }
}

AcceptResult sys_accept(const Fd& listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      AcceptResult result;
      result.fd = Fd(fd);
      result.status = IoStatus::kOk;
      return result;
    }
    if (errno == EINTR) continue;
    AcceptResult result;
    result.status = would_block(errno) ? IoStatus::kWouldBlock : IoStatus::kError;
    return result;
  }
}

Fd sys_epoll_create() { return Fd(::epoll_create1(EPOLL_CLOEXEC)); }

bool sys_epoll_add(const Fd& epoll_fd, int fd, std::uint64_t key) {
  epoll_event ev{};
  // Edge-triggered on both directions: handlers drain until kWouldBlock on
  // every wakeup, so a level re-arm is never needed and EPOLL_CTL_MOD stays
  // off the hot path entirely.
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = key;
  return ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool sys_epoll_del(const Fd& epoll_fd, int fd) {
  return ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_DEL, fd, nullptr) == 0;
}

std::size_t sys_epoll_wait(const Fd& epoll_fd, int timeout_ms,
                           std::vector<ReadyEvent>& out) {
  epoll_event events[128];
  int n;
  for (;;) {
    n = ::epoll_wait(epoll_fd.get(), events, 128, timeout_ms);
    if (n >= 0) break;
    if (errno != EINTR) return 0;
  }
  for (int i = 0; i < n; ++i) {
    ReadyEvent ev;
    ev.key = events[i].data.u64;
    ev.readable = (events[i].events & EPOLLIN) != 0;
    ev.writable = (events[i].events & EPOLLOUT) != 0;
    ev.hangup =
        (events[i].events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
    out.push_back(ev);
  }
  return static_cast<std::size_t>(n);
}

std::size_t sys_raise_nofile(std::size_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (static_cast<std::size_t>(lim.rlim_cur) < want) {
    rlimit raised = lim;
    raised.rlim_cur =
        lim.rlim_max == RLIM_INFINITY
            ? static_cast<rlim_t>(want)
            : std::min(static_cast<rlim_t>(want), lim.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return static_cast<std::size_t>(lim.rlim_cur);
}

}  // namespace xpuf::net::async
