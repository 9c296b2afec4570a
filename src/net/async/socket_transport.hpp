// Transport over one nonblocking stream socket.
//
// SocketTransport implements the exact Transport contract the session layer
// already speaks (send whole encoded frames / receive whole blobs / idle
// quiescence), so DeviceClient and ServerSessionHandler run UNCHANGED over
// TCP or Unix-domain sockets. Unlike PipeTransport, one SocketTransport
// carries BOTH directions of its connection (a socket is full-duplex); the
// engine hands the same object to the client as tx and rx.
//
// Write path: send() appends the encoded frame to an in-memory write buffer
// and opportunistically flushes; flush_writes() (called again on EPOLLOUT)
// pushes until kWouldBlock, tracking partial writes by offset. The buffer is
// capped — a peer that stops reading eventually marks the transport failed,
// which the engine counts and closes (overflow is never a silent drop).
//
// Read path: pump_reads() (called on EPOLLIN) feeds the socket's bytes into
// the FrameStreamDecoder in kReadChunk reads and stops at the first short
// one: on a stream socket a read shorter than asked for has emptied the
// receive queue, and any byte arriving later raises a new edge (epoll(7)),
// so the EAGAIN read that would confirm it is skipped. Only an edge that
// carried a hangup reads on to EOF, so the peer's close is still seen.
// receive() then yields one validated blob per call, which recv_frame
// decodes with the same corrupt accounting as every other transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/async/stream_decoder.hpp"
#include "net/async/syscall.hpp"
#include "net/transport.hpp"

namespace xpuf::net::async {

enum class PumpStatus : std::uint8_t {
  kOk = 0,
  kPeerClosed,  ///< orderly EOF (or EPIPE on write) — drain then close
  kError,       ///< hard socket error; transport is marked failed
};

class SocketTransport final : public Transport {
 public:
  /// Takes ownership of the (nonblocking) socket.
  explicit SocketTransport(Fd fd, std::size_t max_write_buffer = 4u << 20)
      : fd_(std::move(fd)), max_write_buffer_(max_write_buffer) {}

  // Transport contract ----------------------------------------------------
  void send(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> receive() override;
  /// Idle = nothing buffered outbound and no undelivered inbound bytes.
  bool idle() const override {
    return write_buffer_.size() == write_pos_ && decoder_.empty();
  }
  void tick() override {}  // time lives in the event loop, not the transport

  // Event-loop surface ----------------------------------------------------
  /// Bytes asked of each read.
  static constexpr std::size_t kReadChunk = 16384;

  /// Reads the socket into the decoder until a read comes back shorter than
  /// kReadChunk (the receive queue is empty), or until kWouldBlock. With
  /// `hangup` (the edge reported the peer's close or an error) it reads on
  /// to EOF and returns kPeerClosed.
  PumpStatus pump_reads(bool hangup = false);
  /// Flushes buffered writes until kWouldBlock or the buffer empties.
  PumpStatus flush_writes();

  bool wants_write() const { return write_pos_ < write_buffer_.size(); }
  bool failed() const { return failed_; }
  int fd() const { return fd_.get(); }
  const Fd& fd_handle() const { return fd_; }  ///< for sys_socket_error

 private:
  Fd fd_;
  std::size_t max_write_buffer_;
  std::vector<std::uint8_t> write_buffer_;
  std::size_t write_pos_ = 0;  ///< flushed prefix of write_buffer_
  FrameStreamDecoder decoder_;
  bool failed_ = false;
};

}  // namespace xpuf::net::async
