#include "net/async/socket_transport.hpp"

#include "common/metrics.hpp"

namespace xpuf::net::async {

void SocketTransport::send(std::vector<std::uint8_t> frame) {
  if (failed_) return;  // engine observes failed() and closes; frame counted
  if (write_buffer_.size() - write_pos_ + frame.size() > max_write_buffer_) {
    // The peer stopped reading. Marking the transport failed (counted) keeps
    // backpressure typed instead of letting the buffer grow without bound.
    static Counter& write_overflow =
        MetricsRegistry::global().counter("net.async.write_overflow");
    write_overflow.add();
    failed_ = true;
    return;
  }
  write_buffer_.insert(write_buffer_.end(), frame.begin(), frame.end());
  flush_writes();
}

std::optional<std::vector<std::uint8_t>> SocketTransport::receive() {
  return decoder_.next();
}

PumpStatus SocketTransport::pump_reads(bool hangup) {
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const IoResult r = sys_read(fd_, chunk, sizeof chunk);
    switch (r.status) {
      case IoStatus::kOk:
        decoder_.feed(chunk, r.bytes);
        // A short read emptied the receive queue; later bytes raise a new
        // edge. Only a hangup must read on to the EOF behind the data.
        if (r.bytes < sizeof chunk && !hangup) return PumpStatus::kOk;
        break;
      case IoStatus::kWouldBlock:
        return PumpStatus::kOk;
      case IoStatus::kEof:
        return PumpStatus::kPeerClosed;
      case IoStatus::kError:
        failed_ = true;
        return PumpStatus::kError;
    }
  }
}

PumpStatus SocketTransport::flush_writes() {
  while (write_pos_ < write_buffer_.size()) {
    const IoResult r = sys_write(fd_, write_buffer_.data() + write_pos_,
                                 write_buffer_.size() - write_pos_);
    switch (r.status) {
      case IoStatus::kOk:
        write_pos_ += r.bytes;
        break;
      case IoStatus::kWouldBlock:
        return PumpStatus::kOk;
      case IoStatus::kEof:  // sys_write never returns kEof; defensive
      case IoStatus::kError:
        failed_ = true;
        return PumpStatus::kError;
    }
  }
  if (write_pos_ == write_buffer_.size() && write_pos_ > 0) {
    write_buffer_.clear();
    write_pos_ = 0;
  }
  return PumpStatus::kOk;
}

}  // namespace xpuf::net::async
