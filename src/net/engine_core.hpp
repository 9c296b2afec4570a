// The core both authentication service engines drive.
//
// The lockstep ServiceEngine (service.hpp) and the epoll AsyncServiceEngine
// (async/service_engine.hpp) differ only in how frames travel and how time
// advances. Everything else lives here, once: the `device_id % shards` grid
// of ServerDatabases and per-device ServerSessionHandlers, the StreamFamily
// derivations, provisioning, the one ReplySink, and the reconcile pass that
// re-derives every report aggregate from the clients' records and the
// handlers' ledgers in device-id order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/server_session.hpp"
#include "net/session.hpp"
#include "net/transport.hpp"
#include "puf/database.hpp"
#include "sim/chip.hpp"

namespace xpuf::net {

/// Order-sensitive digest step of every report fingerprint; reconcile()
/// feeds it in device-id order, so the digests are schedule-independent.
void mix(std::uint64_t& h, std::uint64_t v);

/// What both drivers report. Each driver's report extends it with only its
/// own fields.
struct EngineReport {
  bool all_finished = false;

  std::uint64_t devices = 0;
  std::uint64_t sessions_total = 0;
  std::uint64_t approved = 0;
  std::uint64_t denied = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;

  std::uint64_t frames_sent = 0;  ///< both endpoints, client + server stats
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_corrupt = 0;

  // Sums of the handlers' ServerLedgers: this engine's run only.
  std::uint64_t nacks_sent = 0;
  std::uint64_t busy_nacks = 0;  ///< the handlers', plus driver overflows
  std::uint64_t sessions_expired = 0;
  std::uint64_t enroll_activated = 0;
  std::uint64_t revocations = 0;
  std::uint64_t batches_issued = 0;  ///< must equal db.issue_requests
  std::uint64_t replies_sent = 0;    ///< checked against server endpoints

  /// Accounting-invariant breaches, empty on a clean run.
  std::vector<std::string> violations;
  /// Digest over session OUTCOMES only (no retries, no frame tallies): the
  /// transport-invariant part of a run, equal for both drivers on the same
  /// seed and plan.
  std::uint64_t outcome_fingerprint = 0;

  bool reconciled() const { return all_finished && violations.empty(); }
};

/// The one ReplySink: frames a handler's reply for `device_id`, stamps the
/// endpoint's next `seq`, and sends it over `transport`, counting `stats`.
class TransportSink final : public ReplySink {
 public:
  TransportSink(Transport& transport, ChannelStats& stats, std::uint32_t& seq,
                std::uint64_t device_id)
      : transport_(&transport), stats_(&stats), seq_(&seq),
        device_id_(device_id) {}

  void send(FrameType type, std::uint32_t session_id,
            std::vector<std::uint8_t> payload) override;

 private:
  Transport* transport_;
  ChannelStats* stats_;
  std::uint32_t* seq_;
  std::uint64_t device_id_;
};

class EngineCore {
 public:
  /// Throws unless `shards >= 1` and `policy.session_ttl >= 1`.
  EngineCore(std::uint32_t shards, std::uint64_t seed,
             const puf::DatabaseConfig& database, ServerPolicy policy);
  ~EngineCore();

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  std::uint32_t shard_of(std::uint64_t device_id) const {
    return static_cast<std::uint32_t>(device_id % shards_.size());
  }
  std::uint64_t device_count() const { return devices_.size(); }
  /// Provisioned ids in ascending order, the reconcile order.
  std::vector<std::uint64_t> device_ids() const;

  const StreamFamily& fault_family() const { return fault_family_; }
  Rng measure_stream(std::uint64_t device_id) const {
    return measure_family_.stream(device_id);
  }

  /// Registers one device on shard `chip.id() % shards`: its model waits for
  /// ENROLL_BEGIN, or goes live now when no activation is scripted. Throws
  /// on a repeated id or a model of another chip.
  ServerSessionHandler& provision(const sim::XorPufChip& chip,
                                  puf::ServerModel model, bool enroll_first);

  /// Records the engine's client of a device; it must outlive the core.
  void attach_client(std::uint64_t device_id, const DeviceClient& client);

  /// nullptr for an id never provisioned.
  ServerSessionHandler* handler(std::uint64_t device_id);

  /// Throws for an unknown id or a device without an attached client.
  const std::vector<SessionRecord>& records(std::uint64_t device_id) const;

  /// Live replay-ledger entries over every shard (the db.ledger_size gauge).
  std::uint64_t ledger_entries() const;

  /// Optional per-engine hook, called per device with an attached client
  /// once the core has tallied it: adds engine-specific invariant checks
  /// and digest words.
  using DeviceCheck =
      std::function<void(std::uint64_t device_id, const DeviceClient& client,
                         const ServerLedger& ledger, std::uint64_t& digest)>;

  /// Fills every EngineReport field but `all_finished` and the server side
  /// of the frame totals, appends violations, and returns the session
  /// digest: the outcome words plus retries, and whatever `check` mixed in.
  std::uint64_t reconcile(EngineReport& report,
                          const DeviceCheck& check = nullptr) const;

 private:
  struct Shard;
  struct Device {
    Device(std::uint64_t device_id, Shard& shard, const StreamFamily& issue,
           ServerPolicy policy);
    ServerSessionHandler handler;
    const DeviceClient* client = nullptr;
  };

  StreamFamily fault_family_;
  StreamFamily issue_family_;
  StreamFamily measure_family_;
  ServerPolicy policy_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::uint64_t, Device> devices_;
};

}  // namespace xpuf::net
