#include "puf/store/store.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf::store {

namespace {

/// Issued-challenge keys per ISSUE record: 65536 keys of a 4096-stage model
/// stay far below kMaxRecordPayloadBytes, so compaction of arbitrarily large
/// ledgers never produces an oversized record.
constexpr std::size_t kLedgerKeysPerRecord = 65536;

std::string shard_gauge_name(std::uint32_t k) {
  return "db.shard_ledger_size." + std::to_string(k);
}

/// Appends ISSUE records covering the packed `rows`, chunked so each
/// record's payload stays bounded.
void append_issue_records(std::vector<std::uint8_t>& out, std::uint64_t device_id,
                          std::uint32_t stages, std::span<const std::uint64_t> rows) {
  XPUF_REQUIRE(stages > 0, "issue records need the model geometry");
  const std::size_t chunk = kLedgerKeysPerRecord * sim::packed_words(stages);
  for (std::size_t at = 0; at < rows.size(); at += chunk)
    encode_record(out, OpType::kIssue, device_id,
                  encode_ledger(stages, rows.subspan(at, std::min(chunk, rows.size() - at))));
}

}  // namespace

EnrollmentStore::EnrollmentStore(ShardedLog log, StoreOptions options)
    : options_(options),
      log_(std::move(log)),
      maps_(log_.n_shards()),
      cache_(options.cache_capacity),
      shard_mu_(std::make_unique<std::mutex[]>(log_.n_shards())),
      cache_mu_(std::make_unique<std::mutex>()),
      pool_mu_(std::make_unique<std::mutex>()),
      shard_ledger_total_(std::make_unique<std::atomic<std::uint64_t>[]>(log_.n_shards())) {
  auto& registry = MetricsRegistry::global();
  shard_gauges_.reserve(log_.n_shards());
  for (std::uint32_t k = 0; k < log_.n_shards(); ++k)
    shard_gauges_.push_back(&registry.gauge(shard_gauge_name(k)));
}

EnrollmentStore EnrollmentStore::open(const std::string& dir, StoreOptions options) {
  XPUF_TRACE_SPAN("db.store_open");
  EnrollmentStore store(ShardedLog::open(dir, options.n_shards), options);
  for (std::uint32_t k = 0; k < store.n_shards(); ++k) {
    store.replay_shard(k);
    store.refresh_ledger_gauges(k);
    // Map only after replay: a torn tail has been truncated away by now, so
    // the frozen mapping covers exactly the validated prefix.
    store.remap_shard(k);
  }
  static Gauge& devices = MetricsRegistry::global().gauge("db.devices");
  devices.set(static_cast<double>(store.index_.size()));
  return store;
}

void EnrollmentStore::replay_shard(std::uint32_t k) {
  static Counter& truncations = MetricsRegistry::global().counter("db.log_truncated");
  AppendLog& shard = log_.shard(k);
  std::vector<std::uint8_t> bytes;
  shard.read_all(bytes);
  const auto corrupt = [&](std::uint64_t offset, const std::string& what) {
    return ParseError("store log " + shard.path() + " at offset " +
                      std::to_string(offset) + ": " + what);
  };
  std::uint64_t offset = 0;
  // A pad record is only ever written immediately before the REGISTER it
  // aligns (same append), so a pad with nothing after it is the residue of
  // a torn append, not acknowledged state — trim from the pad's own begin.
  bool tail_is_pad = false;
  std::uint64_t tail_pad_begin = 0;
  while (offset < bytes.size()) {
    RecordView view;
    const RecordStatus status = decode_record(bytes.data(), bytes.size(), offset, view);
    if (status == RecordStatus::kTruncated) {
      // Torn tail from a crash mid-append: everything before `offset` is
      // intact (each record is crc'd), so cut the residue and carry on.
      truncations.add(1);
      shard.truncate_to(tail_is_pad ? tail_pad_begin : offset);
      return;
    }
    if (status != RecordStatus::kOk) throw corrupt(offset, to_string(status));
    switch (view.op) {
      case OpType::kRegister: {
        if (index_.count(view.device_id) != 0)
          throw corrupt(offset, "REGISTER for already-registered device " +
                                    std::to_string(view.device_id));
        std::uint32_t puf_count = 0;
        std::uint32_t stages = 0;
        if (peek_model_shape(view.payload, view.payload_len, puf_count, stages) !=
                RecordStatus::kOk ||
            view.payload_len != model_payload_bytes(puf_count, stages))
          throw corrupt(offset, "malformed model payload");
        index_[view.device_id] =
            DeviceRecord{k, view.begin, view.end - view.begin, puf_count, stages};
        ledgers_.insert_or_assign(view.device_id, ChallengeSet(stages));
        break;
      }
      case OpType::kRevoke: {
        if (view.payload_len != 0) throw corrupt(offset, "REVOKE with a payload");
        const auto it = ledgers_.find(view.device_id);
        if (it == ledgers_.end() || index_.erase(view.device_id) == 0)
          throw corrupt(offset, "REVOKE for unknown device " +
                                    std::to_string(view.device_id));
        shard_ledger_total_[k].fetch_sub(it->second.size(), std::memory_order_relaxed);
        ledgers_.erase(it);
        if (const auto pit = pools_.find(view.device_id); pit != pools_.end()) {
          pool_undrained_ -= pit->second.count - pit->second.head;
          pools_.erase(pit);
        }
        break;
      }
      case OpType::kIssue: {
        const auto it = ledgers_.find(view.device_id);
        if (it == ledgers_.end())
          throw corrupt(offset, "orphaned ISSUE record for unknown device " +
                                    std::to_string(view.device_id) +
                                    " — issued challenges must never be forgotten");
        // Rows decode straight into the ledger; a payload of another
        // geometry than the registered model is rejected as malformed.
        std::uint64_t inserted = 0;
        if (decode_ledger(view.payload, view.payload_len, it->second, inserted) !=
            RecordStatus::kOk)
          throw corrupt(offset, "malformed ledger payload");
        shard_ledger_total_[k].fetch_add(inserted, std::memory_order_relaxed);
        break;
      }
      case OpType::kPool: {
        if (index_.count(view.device_id) == 0)
          throw corrupt(offset, "POOL record for unknown device " +
                                    std::to_string(view.device_id));
        PoolView pool;
        if (decode_pool(view.payload, view.payload_len, pool) != RecordStatus::kOk)
          throw corrupt(offset, "malformed pool payload");
        if (pool.stages != index_.at(view.device_id).stages)
          throw corrupt(offset, "pool geometry does not match the registered model");
        // Append order is authority: a refill's record supersedes its
        // predecessor. head restarts at 0 — the replay ledger screens out
        // the already-issued prefix on the first post-crash drain.
        if (const auto pit = pools_.find(view.device_id); pit != pools_.end())
          pool_undrained_ -= pit->second.count - pit->second.head;
        pool_undrained_ += pool.count;
        pools_[view.device_id] = PoolSlot{k, view.begin, view.end - view.begin, pool.count, 0,
                                          pool.epoch, pool.cursor};
        break;
      }
      case OpType::kPad: {
        if (view.payload_len > kMaxPadBytes)
          throw corrupt(offset, "PAD record longer than any alignment gap");
        break;
      }
    }
    tail_is_pad = view.op == OpType::kPad;
    tail_pad_begin = view.begin;
    offset = view.end;
  }
  if (tail_is_pad) {
    // The log ends in a complete pad whose REGISTER never made it to disk:
    // the append was torn exactly at the pad/record boundary.
    truncations.add(1);
    shard.truncate_to(tail_pad_begin);
  }
}

std::vector<std::uint64_t> EnrollmentStore::device_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(index_.size());
  for (const auto& [id, rec] : index_) ids.push_back(id);
  return ids;
}

const DeviceRecord& EnrollmentStore::device_record(std::uint64_t device_id) const {
  const auto it = index_.find(device_id);
  XPUF_REQUIRE(it != index_.end(), "unknown device id");
  return it->second;
}

void EnrollmentStore::append_record(std::uint32_t shard,
                                    const std::vector<std::uint8_t>& bytes) {
  XPUF_REQUIRE(shard < n_shards(), "shard index out of range");
  std::lock_guard<std::mutex> lock(shard_mu_[shard]);
  log_.shard(shard).append(bytes);
}

void EnrollmentStore::register_device(ServerModel model) {
  XPUF_REQUIRE(!knows(model.chip_id()), "device already registered");
  XPUF_REQUIRE(model.puf_count() >= 1 && model.puf_count() <= kMaxPufsPerModel,
               "model PUF count outside store bounds");
  XPUF_REQUIRE(model.stages() >= 1 && model.stages() <= kMaxStagesPerModel,
               "model stage count outside store bounds");
  static Counter& evictions = MetricsRegistry::global().counter("db.cache_evictions");
  const std::uint64_t id = model.chip_id();
  const std::uint32_t k = log_.shard_of(id);
  std::vector<std::uint8_t> bytes;
  std::uint64_t end = 0;
  std::uint64_t record_len = 0;
  {
    std::lock_guard<std::mutex> lock(shard_mu_[k]);
    // Pad to an 8-byte file offset first so the REGISTER record's f64
    // region is mmap-servable without a decode.
    append_alignment_pad(bytes, log_.shard(k).size());
    const std::size_t pad_bytes = bytes.size();
    encode_record(bytes, OpType::kRegister, id, encode_model(model));
    record_len = bytes.size() - pad_bytes;
    end = log_.shard(k).append(bytes);
  }
  index_[id] = DeviceRecord{k, end - record_len, record_len,
                            static_cast<std::uint32_t>(model.puf_count()),
                            static_cast<std::uint32_t>(model.stages())};
  ledgers_.insert_or_assign(id, ChallengeSet(model.stages()));
  auto shared = std::make_shared<const ServerModel>(std::move(model));
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    evictions.add(cache_.put(id, std::move(shared)));
  }
  static Gauge& devices = MetricsRegistry::global().gauge("db.devices");
  devices.set(static_cast<double>(index_.size()));
}

void EnrollmentStore::revoke_device(std::uint64_t device_id) {
  XPUF_REQUIRE(knows(device_id), "revoking an unknown device");
  const std::uint32_t k = log_.shard_of(device_id);
  std::vector<std::uint8_t> bytes;
  encode_record(bytes, OpType::kRevoke, device_id, {});
  append_record(k, bytes);
  shard_ledger_total_[k].fetch_sub(ledgers_.at(device_id).size(),
                                   std::memory_order_relaxed);
  index_.erase(device_id);
  ledgers_.erase(device_id);
  {
    std::lock_guard<std::mutex> lock(*pool_mu_);
    if (const auto pit = pools_.find(device_id); pit != pools_.end()) {
      pool_undrained_ -= pit->second.count - pit->second.head;
      pools_.erase(pit);
    }
  }
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    cache_.erase(device_id);
  }
  refresh_ledger_gauges(k);
  static Gauge& devices = MetricsRegistry::global().gauge("db.devices");
  devices.set(static_cast<double>(index_.size()));
}

std::shared_ptr<const ServerModel> EnrollmentStore::model(std::uint64_t device_id) const {
  auto& registry = MetricsRegistry::global();
  static Counter& hits = registry.counter("db.cache_hits");
  static Counter& misses = registry.counter("db.cache_misses");
  static Counter& evictions = registry.counter("db.cache_evictions");
  const auto it = index_.find(device_id);
  XPUF_REQUIRE(it != index_.end(), "unknown device id");
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    if (auto cached = cache_.get(device_id)) {
      hits.add(1);
      return cached;
    }
  }
  misses.add(1);
  const DeviceRecord& rec = it->second;
  std::vector<std::uint8_t> bytes;
  {
    std::lock_guard<std::mutex> lock(shard_mu_[rec.shard]);
    log_.shard(rec.shard).read_at(rec.offset, rec.length, bytes);
  }
  RecordView view;
  if (decode_record(bytes.data(), bytes.size(), 0, view) != RecordStatus::kOk ||
      view.op != OpType::kRegister || view.device_id != device_id)
    throw ParseError("stored REGISTER record for device " + std::to_string(device_id) +
                     " is corrupt");
  auto decoded = std::make_shared<ServerModel>();
  if (decode_model(view.payload, view.payload_len, device_id, *decoded) != RecordStatus::kOk)
    throw ParseError("stored model payload for device " + std::to_string(device_id) +
                     " is corrupt");
  std::shared_ptr<const ServerModel> shared = std::move(decoded);
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    evictions.add(cache_.put(device_id, shared));
  }
  return shared;
}

ModelView EnrollmentStore::model_view(std::uint64_t device_id) const {
  auto& registry = MetricsRegistry::global();
  static Counter& hits = registry.counter("db.cache_hits");
  static Counter& mmap_hits = registry.counter("db.mmap_hits");
  static Counter& mmap_bytes = registry.counter("db.mmap_bytes");
  const auto it = index_.find(device_id);
  XPUF_REQUIRE(it != index_.end(), "unknown device id");
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    if (auto cached = cache_.get(device_id)) {
      hits.add(1);
      return ModelView::of(std::move(cached));
    }
  }
  const DeviceRecord& rec = it->second;
  // Zero-copy cold path: when the REGISTER record sits inside the shard's
  // frozen mapping, crc-check it in place and hand out spans over the mapped
  // bytes. Deliberately bypasses the LRU — the point is that cold lookups
  // cost no decode and no resident copy.
  if (const std::shared_ptr<const MappedFile> map = maps_[rec.shard];
      map != nullptr && rec.offset + rec.length <= map->size()) {
    RecordView view;
    if (decode_record(map->data(), map->size(), rec.offset, view) != RecordStatus::kOk ||
        view.op != OpType::kRegister || view.device_id != device_id)
      throw ParseError("mapped REGISTER record for device " + std::to_string(device_id) +
                       " is corrupt");
    ModelView out;
    if (model_view_from_payload(view.payload, view.payload_len, device_id, map, out)) {
      mmap_hits.add(1);
      mmap_bytes.add(rec.length);
      return out;
    }
    // Misaligned record (written before aligned appends existed): fall
    // through to the decode path, which serves any store.
  }
  return ModelView::of(model(device_id));
}

void EnrollmentStore::remap_shard(std::uint32_t k) {
  maps_[k] = MappedFile::map_prefix(log_.shard(k).path(), log_.shard(k).size());
}

void EnrollmentStore::record_pool(std::uint64_t device_id, const PoolPayload& pool) {
  const auto it = index_.find(device_id);
  XPUF_REQUIRE(it != index_.end(), "unknown device id");
  XPUF_REQUIRE(pool.stages == it->second.stages,
               "pool geometry does not match the registered model");
  const std::uint32_t k = log_.shard_of(device_id);
  std::vector<std::uint8_t> bytes;
  encode_record(bytes, OpType::kPool, device_id, encode_pool(pool));
  std::uint64_t end = 0;
  {
    std::lock_guard<std::mutex> lock(shard_mu_[k]);
    end = log_.shard(k).append(bytes);
  }
  std::lock_guard<std::mutex> lock(*pool_mu_);
  if (const auto pit = pools_.find(device_id); pit != pools_.end())
    pool_undrained_ -= pit->second.count - pit->second.head;
  pool_undrained_ += pool.size();
  pools_[device_id] = PoolSlot{k, end - bytes.size(), bytes.size(),
                               static_cast<std::uint32_t>(pool.size()), 0, pool.epoch,
                               pool.cursor};
}

bool EnrollmentStore::pool_slot(std::uint64_t device_id, PoolSlot& out) const {
  std::lock_guard<std::mutex> lock(*pool_mu_);
  const auto it = pools_.find(device_id);
  if (it == pools_.end()) return false;
  out = it->second;
  return true;
}

void EnrollmentStore::set_pool_head(std::uint64_t device_id, std::uint32_t head) {
  std::lock_guard<std::mutex> lock(*pool_mu_);
  const auto it = pools_.find(device_id);
  XPUF_REQUIRE(it != pools_.end(), "device has no pool");
  XPUF_REQUIRE(head >= it->second.head && head <= it->second.count,
               "pool head must advance monotonically within the record");
  pool_undrained_ -= head - it->second.head;
  it->second.head = head;
}

std::uint64_t EnrollmentStore::pool_entries_total() const {
  std::lock_guard<std::mutex> lock(*pool_mu_);
  return pool_undrained_;
}

void EnrollmentStore::read_pool_slice(std::uint64_t device_id, std::uint32_t first,
                                      std::uint32_t n, std::vector<std::uint64_t>& words,
                                      std::vector<std::uint8_t>& expected) const {
  PoolSlot slot;
  XPUF_REQUIRE(pool_slot(device_id, slot), "device has no pool");
  XPUF_REQUIRE(first <= slot.count && n <= slot.count - first,
               "pool slice out of range");
  const auto corrupt = [&] {
    return ParseError("stored POOL record for device " + std::to_string(device_id) +
                      " is corrupt");
  };
  // Validate the whole record (crc) on every read — pool bytes gate what the
  // server issues, so they get the same per-read skepticism as the mapped
  // model path. Served in place from the shard mapping when covered; a
  // record appended after the mapping was frozen is fetched with one pread.
  const std::shared_ptr<const MappedFile> map = maps_[slot.shard];
  std::vector<std::uint8_t> bytes;
  const std::uint8_t* base = nullptr;
  std::uint64_t base_size = 0;
  std::uint64_t record_at = 0;
  if (map != nullptr && slot.offset + slot.length <= map->size()) {
    base = map->data();
    base_size = map->size();
    record_at = slot.offset;
  } else {
    std::lock_guard<std::mutex> lock(shard_mu_[slot.shard]);
    log_.shard(slot.shard).read_at(slot.offset, slot.length, bytes);
    base = bytes.data();
    base_size = bytes.size();
  }
  RecordView view;
  if (decode_record(base, base_size, record_at, view) != RecordStatus::kOk ||
      view.op != OpType::kPool || view.device_id != device_id)
    throw corrupt();
  PoolView pool;
  if (decode_pool(view.payload, view.payload_len, pool) != RecordStatus::kOk ||
      pool.count != slot.count || pool.stages != index_.at(device_id).stages)
    throw corrupt();
  // Only the requested slice is materialized.
  pool.read(first, n, words, expected);
}

ChallengeSet& EnrollmentStore::ledger(std::uint64_t device_id) {
  const auto it = ledgers_.find(device_id);
  XPUF_REQUIRE(it != ledgers_.end(), "unknown device id");
  return it->second;
}

const ChallengeSet& EnrollmentStore::ledger(std::uint64_t device_id) const {
  const auto it = ledgers_.find(device_id);
  XPUF_REQUIRE(it != ledgers_.end(), "unknown device id");
  return it->second;
}

void EnrollmentStore::record_issued(std::uint64_t device_id, std::uint32_t stages,
                                    std::span<const std::uint64_t> fresh) {
  XPUF_REQUIRE(knows(device_id), "unknown device id");
  if (fresh.empty()) return;
  const std::uint32_t k = log_.shard_of(device_id);
  std::vector<std::uint8_t> bytes;
  append_issue_records(bytes, device_id, stages, fresh);
  append_record(k, bytes);
  shard_ledger_total_[k].fetch_add(fresh.size() / sim::packed_words(stages),
                                   std::memory_order_relaxed);
  refresh_ledger_gauges(k);
}

std::uint64_t EnrollmentStore::issued_total() const {
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < n_shards(); ++k)
    total += shard_ledger_total_[k].load(std::memory_order_relaxed);
  return total;
}

std::uint64_t EnrollmentStore::shard_issued_total(std::uint32_t k) const {
  XPUF_REQUIRE(k < n_shards(), "shard index out of range");
  return shard_ledger_total_[k].load(std::memory_order_relaxed);
}

void EnrollmentStore::refresh_ledger_gauges(std::uint32_t shard) const {
  static Gauge& fleet = MetricsRegistry::global().gauge("db.ledger_size");
  fleet.set(static_cast<double>(issued_total()));
  shard_gauges_[shard]->set(
      static_cast<double>(shard_ledger_total_[shard].load(std::memory_order_relaxed)));
}

void EnrollmentStore::compact() {
  XPUF_TRACE_SPAN("db.compact");
  for (std::uint32_t k = 0; k < n_shards(); ++k) {
    std::vector<std::uint8_t> fresh;
    std::map<std::uint64_t, DeviceRecord> rewritten;
    std::map<std::uint64_t, PoolSlot> rewritten_pools;
    for (const auto& [id, rec] : index_) {
      if (rec.shard != k) continue;
      // Copy the REGISTER record bytes verbatim: the model survives
      // compaction bit-exactly without ever being decoded. The pad keeps
      // its f64 region 8-aligned so the rewritten shard is mmap-servable
      // even when the original (pre-alignment) store was not.
      append_alignment_pad(fresh);
      std::vector<std::uint8_t> record_bytes;
      log_.shard(k).read_at(rec.offset, rec.length, record_bytes);
      DeviceRecord updated = rec;
      updated.offset = fresh.size();
      fresh.insert(fresh.end(), record_bytes.begin(), record_bytes.end());
      rewritten[id] = updated;
      // Keys in ascending on-disk byte order, so a compacted shard is a
      // pure function of the ledger's contents.
      append_issue_records(fresh, id, rec.stages, ledgers_.at(id).sorted_rows());
      PoolSlot slot;
      if (pool_slot(id, slot)) {
        // The latest POOL record also travels verbatim; head/epoch/cursor
        // are slot state, only the location changes.
        std::vector<std::uint8_t> pool_bytes;
        log_.shard(k).read_at(slot.offset, slot.length, pool_bytes);
        slot.offset = fresh.size();
        fresh.insert(fresh.end(), pool_bytes.begin(), pool_bytes.end());
        rewritten_pools[id] = slot;
      }
    }
    if (fresh.empty()) {
      // No live devices route here; truncating (one syscall) beats renaming
      // an empty file into place, and replay of an empty shard is a no-op.
      log_.shard(k).truncate_to(0);
    } else {
      log_.shard(k).replace_with(fresh);
    }
    for (const auto& [id, rec] : rewritten) index_[id] = rec;
    {
      std::lock_guard<std::mutex> lock(*pool_mu_);
      for (const auto& [id, slot] : rewritten_pools) pools_[id] = slot;
    }
    // Swap in a mapping of the rewritten shard; views handed out over the
    // old mapping keep it alive until they die.
    remap_shard(k);
  }
}

std::size_t EnrollmentStore::cache_size() const {
  std::lock_guard<std::mutex> lock(*cache_mu_);
  return cache_.size();
}

}  // namespace xpuf::puf::store
