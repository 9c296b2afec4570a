// Transport abstraction of the authentication service.
//
// A Transport is one direction of a connection: a FIFO of encoded frames.
// PipeTransport is the deterministic in-process implementation; the
// FaultyTransport decorator injects seeded drops, duplicates, reorders,
// truncations, and bit-flips so every protocol path has a hostile-network
// test. Fault schedules are stream-keyed per connection (StreamFamily, the
// PR 1 RNG-splitting pattern): the fault pattern a connection sees is a pure
// function of (family base, connection key, per-connection frame order), so
// runs are bit-identical at any worker-thread count.
//
// Concurrency contract: a transport pair belongs to exactly one connection,
// and every connection is owned by exactly one ServiceEngine shard — all
// calls on one transport happen on that shard's lane, serially. Transports
// therefore need no locks, matching the chunk-ownership rule of
// common/parallel.hpp.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "net/wire.hpp"

namespace xpuf::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Queues one encoded frame toward the peer.
  virtual void send(std::vector<std::uint8_t> frame) = 0;

  /// Pops the next deliverable frame; nullopt when none is pending.
  virtual std::optional<std::vector<std::uint8_t>> receive() = 0;

  /// True when nothing is queued or held in flight (accounting quiescence —
  /// the engine only reconciles once every transport is idle).
  virtual bool idle() const = 0;

  /// Advances one engine round (reorder hold queues age here).
  virtual void tick() = 0;
};

/// Deterministic in-process FIFO pipe: frames arrive exactly once, in order.
class PipeTransport final : public Transport {
 public:
  void send(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> receive() override;
  bool idle() const override { return queue_.empty(); }
  void tick() override {}

 private:
  std::deque<std::vector<std::uint8_t>> queue_;
};

/// Per-fault injection probabilities. At most one fault is applied per frame
/// (a single uniform draw selects the band), so the tallies partition the
/// sent count exactly.
struct FaultProfile {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double truncate = 0.0;
  double bitflip = 0.0;
  /// Rounds a reordered frame is held before release (1..max, seeded draw).
  std::uint32_t reorder_delay_max = 3;

  double total() const { return drop + duplicate + reorder + truncate + bitflip; }

  /// Every fault class at the same per-frame rate.
  static FaultProfile uniform(double rate) {
    FaultProfile p;
    p.drop = p.duplicate = p.reorder = p.truncate = p.bitflip = rate;
    return p;
  }
};

/// Exact per-instance fault ledger; the engine sums these to prove zero
/// accounting drift (delivered + dropped == sent + duplicated).
struct FaultTally {
  std::uint64_t sent = 0;        ///< frames handed to send()
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;  ///< extra copies created
  std::uint64_t reordered = 0;
  std::uint64_t truncated = 0;
  std::uint64_t bitflipped = 0;

  std::uint64_t faults() const {
    return dropped + duplicated + reordered + truncated + bitflipped;
  }
};

class FaultyTransport final : public Transport {
 public:
  /// `connection_key` keys this connection's private fault stream in
  /// `family`; distinct keys (connections, directions) are decorrelated.
  FaultyTransport(Transport& inner, FaultProfile profile,
                  const StreamFamily& family, std::uint64_t connection_key);

  void send(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> receive() override;
  bool idle() const override;
  void tick() override;

  const FaultTally& tally() const { return tally_; }

 private:
  Transport* inner_;
  FaultProfile profile_;
  Rng rng_;
  FaultTally tally_;
  /// Reordered frames with their remaining hold rounds.
  std::deque<std::pair<std::uint32_t, std::vector<std::uint8_t>>> held_;
};

/// Per-endpoint frame accounting (client side or server side of one
/// connection). Owned by the shard lane, so plain integers suffice; the same
/// events also feed the global net.* counters.
struct ChannelStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t corrupt = 0;
};

/// Encodes and sends one frame; counts net.frames_sent.
void send_frame(Transport& transport, const Frame& frame, ChannelStats& stats);

/// Pops blobs until one decodes. Counts net.frames_delivered for every pop
/// and net.frames_corrupt for undecodable ones (swallowed — the session
/// retry layer recovers); nullopt once the queue is empty.
std::optional<Frame> recv_frame(Transport& transport, ChannelStats& stats);

}  // namespace xpuf::net
