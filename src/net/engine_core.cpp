#include "net/engine_core.hpp"

#include <tuple>
#include <utility>

#include "common/error.hpp"

namespace xpuf::net {

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

void TransportSink::send(FrameType type, std::uint32_t session_id,
                         std::vector<std::uint8_t> payload) {
  Frame frame;
  frame.header.type = type;
  frame.header.device_id = device_id_;
  frame.header.session_id = session_id;
  frame.header.seq = (*seq_)++;
  frame.payload = std::move(payload);
  send_frame(*transport_, frame, *stats_);
}

struct EngineCore::Shard {
  explicit Shard(const puf::DatabaseConfig& db_config) : db(db_config) {}

  puf::ServerDatabase db;
  /// Enrolled models waiting for their ENROLL_BEGIN activation, partitioned
  /// here at provision() time so activation is a shard-local map insert.
  std::map<std::uint64_t, puf::ServerModel> provisioned;
};

EngineCore::Device::Device(std::uint64_t device_id, Shard& shard,
                           const StreamFamily& issue, ServerPolicy policy)
    : handler(device_id, shard.db, shard.provisioned, issue, policy) {}

EngineCore::EngineCore(std::uint32_t shards, std::uint64_t seed,
                       const puf::DatabaseConfig& database, ServerPolicy policy)
    : fault_family_(Rng(seed ^ 0xfa'17'00'01).fork_base()),
      issue_family_(Rng(seed ^ 0xfa'17'00'02).fork_base()),
      measure_family_(Rng(seed ^ 0xfa'17'00'03).fork_base()),
      policy_(policy) {
  XPUF_REQUIRE(shards >= 1, "the shard grid needs at least one shard");
  policy.require_valid();
  shards_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s)
    shards_.push_back(std::make_unique<Shard>(database));
}

EngineCore::~EngineCore() = default;

std::vector<std::uint64_t> EngineCore::device_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(devices_.size());
  for (const auto& entry : devices_) ids.push_back(entry.first);
  return ids;
}

ServerSessionHandler& EngineCore::provision(const sim::XorPufChip& chip,
                                            puf::ServerModel model,
                                            bool enroll_first) {
  const auto device_id = static_cast<std::uint64_t>(chip.id());
  XPUF_REQUIRE(devices_.find(device_id) == devices_.end(),
               "device provisioned twice");
  XPUF_REQUIRE(model.chip_id() == chip.id(),
               "enrolled model does not belong to this chip");
  Shard& shard = *shards_[shard_of(device_id)];
  if (enroll_first) {
    shard.provisioned.emplace(device_id, std::move(model));
  } else {
    // No activation step scripted: the model goes live immediately.
    shard.db.register_device(std::move(model));
  }
  return devices_
      .emplace(std::piecewise_construct, std::forward_as_tuple(device_id),
               std::forward_as_tuple(device_id, shard, issue_family_, policy_))
      .first->second.handler;
}

void EngineCore::attach_client(std::uint64_t device_id,
                               const DeviceClient& client) {
  const auto it = devices_.find(device_id);
  XPUF_REQUIRE(it != devices_.end(), "unknown device id");
  it->second.client = &client;
}

ServerSessionHandler* EngineCore::handler(std::uint64_t device_id) {
  const auto it = devices_.find(device_id);
  return it == devices_.end() ? nullptr : &it->second.handler;
}

const std::vector<SessionRecord>& EngineCore::records(
    std::uint64_t device_id) const {
  const auto it = devices_.find(device_id);
  XPUF_REQUIRE(it != devices_.end(), "unknown device id");
  XPUF_REQUIRE(it->second.client != nullptr, "device_records before run()");
  return it->second.client->records();
}

std::uint64_t EngineCore::ledger_entries() const {
  std::uint64_t entries = 0;
  for (const auto& entry : devices_) {
    const puf::ServerDatabase& db = shards_[shard_of(entry.first)]->db;
    const auto chip_id = static_cast<std::size_t>(entry.first);
    if (db.knows(chip_id)) entries += db.issued_count(chip_id);
  }
  return entries;
}

std::uint64_t EngineCore::reconcile(EngineReport& report,
                                    const DeviceCheck& check) const {
  report.devices = devices_.size();
  std::uint64_t h = 0xc0ffee;
  std::uint64_t outcome_h = 0xc0ffee;
  for (const auto& [device_id, device] : devices_) {
    const ServerLedger& ledger = device.handler.ledger();
    report.nacks_sent += ledger.nacks_sent;
    report.busy_nacks += ledger.busy_nacks;
    report.sessions_expired += ledger.sessions_expired;
    report.enroll_activated += ledger.enroll_activated;
    report.revocations += ledger.revocations;
    report.batches_issued += ledger.batches_issued;
    report.replies_sent += ledger.replies_sent;
    if (device.client == nullptr) continue;  // never started; driver reports it
    const DeviceClient& client = *device.client;
    for (const SessionRecord& rec : client.records()) {
      report.sessions_total += 1;
      report.retries += rec.retries;
      switch (rec.terminal) {
        case SessionPhase::kApproved: report.approved += 1; break;
        case SessionPhase::kDenied: report.denied += 1; break;
        case SessionPhase::kRejected: report.rejected += 1; break;
        case SessionPhase::kFailed: report.failed += 1; break;
        default:
          report.violations.push_back(
              "device " + std::to_string(device_id) + " session " +
              std::to_string(rec.session_id) + " has no terminal state");
      }
      mix(h, device_id);
      mix(h, rec.session_id);
      mix(h, static_cast<std::uint64_t>(rec.opened_with));
      mix(h, static_cast<std::uint64_t>(rec.terminal));
      mix(h, rec.retries);
      mix(h, rec.mismatches);
      mix(h, rec.challenges_used);
      // Transport-invariant digest: what the session DECIDED, not how many
      // times the wire made the client ask.
      mix(outcome_h, device_id);
      mix(outcome_h, rec.session_id);
      mix(outcome_h, static_cast<std::uint64_t>(rec.opened_with));
      mix(outcome_h, static_cast<std::uint64_t>(rec.terminal));
      mix(outcome_h, rec.mismatches);
      mix(outcome_h, rec.challenges_used);
    }
    if (!client.finished())
      report.violations.push_back("device " + std::to_string(device_id) +
                                  " did not finish its session plan");
    const ChannelStats& stats = client.channel_stats();
    report.frames_sent += stats.sent;
    report.frames_delivered += stats.delivered;
    report.frames_corrupt += stats.corrupt;
    if (check) check(device_id, client, ledger, h);
  }
  report.outcome_fingerprint = outcome_h;
  return h;
}

}  // namespace xpuf::net
