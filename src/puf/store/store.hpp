// EnrollmentStore — the crash-safe, bounded-memory device registry.
//
// Durability model: every mutation (register / revoke / issue) is one
// framed, crc'd record appended to the device's shard log and flushed
// before the call returns. Recovery replays each shard front to back; a
// torn tail record (the residue of a crash mid-append) is truncated away
// and counted, while any *mid-file* corruption is a loud ParseError — the
// ledger is the replay defense, so guessing at its contents is a security
// bug. Because replay applies ops in order, a revoked device can never be
// resurrected by older records, and compaction (write-temp-then-rename per
// shard) only ever swaps a complete old shard for a complete new one.
//
// Memory model: the index (device -> shard/offset/geometry) and the
// issued-challenge ledgers stay resident — each ledger a flat ChallengeSet
// of packed rows, ~10–21 bytes per 8-byte key (~31 at the peak of a
// rehash), nothing for a device never issued to; model weights — the bulk of the
// bytes — are decoded on demand through a capacity-bounded LRU cache
// (db.cache_hits / db.cache_misses / db.cache_evictions), so serving a
// million-device fleet needs cache_capacity models in RAM, not a million.
// The model_view() path goes further: a cache miss whose REGISTER record
// lies inside the shard's read-only mapping is served zero-copy straight
// from the page cache (db.mmap_hits / db.mmap_bytes) — crc-checked per
// view, no decode, no allocation, flat RSS at any fleet size.
//
// Concurrency contract mirrors ServerDatabase: model()/model_view()/
// ledger()/record_issued() and the pool accessors (record_pool /
// read_pool_slice / set_pool_head) are safe concurrently for DISTINCT
// registered devices
// (the cache has its own lock, appends take the shard's lock);
// register_device / revoke_device / compact / open require exclusive
// access. Gauges are last-writer-wins under concurrent issue, like every
// gauge in the registry; counters are exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "puf/store/cache.hpp"
#include "puf/store/log.hpp"
#include "puf/store/mmap_file.hpp"
#include "puf/store/record.hpp"

namespace xpuf {
class Gauge;
}

namespace xpuf::puf::store {

struct StoreOptions {
  std::uint32_t n_shards = 16;      ///< shard fan-out for a NEW store dir
  std::size_t cache_capacity = 1024;  ///< resident decoded models (>= 1)
};

/// Index entry: where a device's REGISTER record lives and its geometry.
struct DeviceRecord {
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;   ///< record begin within the shard file
  std::uint64_t length = 0;   ///< framed record length (header+payload+crc)
  std::uint32_t puf_count = 0;
  std::uint32_t stages = 0;
};

/// Index entry for a device's latest POOL record plus the in-memory drain
/// cursor. `head` (entries already handed out this process lifetime) is NOT
/// durable: after a crash it resets to 0 and the replay ledger filters out
/// the already-issued prefix, so a pool entry can never be issued twice.
struct PoolSlot {
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;   ///< POOL record begin within the shard file
  std::uint64_t length = 0;   ///< framed record length
  std::uint32_t count = 0;    ///< entries in the record
  std::uint32_t head = 0;     ///< entries drained (in-memory only)
  std::uint32_t epoch = 0;    ///< pool generation (refills bump it)
  std::uint64_t cursor = 0;   ///< candidate-stream index the next refill resumes at
};

class EnrollmentStore {
 public:
  /// Opens (creating if needed) the store at `dir` and replays the shard
  /// logs into the in-memory index/ledgers. Torn tails are truncated and
  /// counted under db.log_truncated; mid-file corruption throws ParseError.
  static EnrollmentStore open(const std::string& dir, StoreOptions options);

  const std::string& dir() const { return log_.dir(); }
  const StoreOptions& options() const { return options_; }
  std::uint32_t n_shards() const { return log_.n_shards(); }

  std::size_t device_count() const { return index_.size(); }
  bool knows(std::uint64_t device_id) const { return index_.count(device_id) != 0; }
  std::vector<std::uint64_t> device_ids() const;
  // Test hook: test_store and test_screening read record
  // placement.  xpuf-lint: allow(orphan-symbol)
  const DeviceRecord& device_record(std::uint64_t device_id) const;

  /// Appends a REGISTER record (flushed before returning) and warms the
  /// cache. Rejects duplicate ids and out-of-bounds geometry.
  void register_device(ServerModel model);

  /// Appends a REVOKE record and drops the device from index, ledger and
  /// cache. Replay order guarantees it stays gone after recovery.
  void revoke_device(std::uint64_t device_id);

  /// The device's model, through the LRU cache (hit) or decoded from its
  /// REGISTER record (miss). The shared_ptr keeps the model alive across a
  /// concurrent eviction.
  std::shared_ptr<const ServerModel> model(std::uint64_t device_id) const;

  /// Zero-copy-preferring model access: LRU hit (db.cache_hits) -> view over
  /// the cached ServerModel; else, when the record lies inside the shard's
  /// read-only mapping, a crc-checked view whose weight spans point straight
  /// into the mapped bytes (db.mmap_hits / db.mmap_bytes — no decode, no
  /// allocation, no cache churn); else the decode path of model()
  /// (db.cache_misses). The view's owner keeps the backing mapping or model
  /// alive, so it stays valid across compaction and eviction.
  ModelView model_view(std::uint64_t device_id) const;

  /// Durably replaces the device's stable-challenge pool: appends one POOL
  /// record (flushed before returning) and points the device's pool slot at
  /// it with head = 0. Replay keeps the record appended last.
  void record_pool(std::uint64_t device_id, const PoolPayload& pool);

  /// Appends entries [first, first + n) of the device's pool — packed rows
  /// (sim::packed_words(stages) words each) and expected bits — to
  /// `words`/`expected`. The stored record is
  /// crc-checked on every read (served from the shard mapping when the
  /// record lies inside it, pread otherwise), and only the requested slice
  /// is materialized, so a drain of c challenges costs O(record + c), not
  /// O(pool) allocations. Requires first + n <= the slot's count.
  void read_pool_slice(std::uint64_t device_id, std::uint32_t first, std::uint32_t n,
                       std::vector<std::uint64_t>& words,
                       std::vector<std::uint8_t>& expected) const;

  /// Copies the device's pool slot into `out`; false when it has none.
  bool pool_slot(std::uint64_t device_id, PoolSlot& out) const;

  /// Advances the in-memory drain cursor (monotonic, <= count).
  void set_pool_head(std::uint64_t device_id, std::uint32_t head);

  /// Undrained pool entries across the fleet (sum of count - head).
  std::uint64_t pool_entries_total() const;

  /// The device's memory-resident replay ledger (packed challenge rows).
  ChallengeSet& ledger(std::uint64_t device_id);
  const ChallengeSet& ledger(std::uint64_t device_id) const;

  /// Durably acknowledges freshly issued challenges: appends one ISSUE
  /// record with the packed rows `fresh` (already inserted into ledger() by
  /// the caller) and updates the fleet-wide + per-shard ledger gauges. The
  /// append's flush is the acknowledgement point the torture test pins.
  void record_issued(std::uint64_t device_id, std::uint32_t stages,
                     std::span<const std::uint64_t> fresh);

  /// Fleet-wide issued-challenge total (sum of per-shard totals).
  std::uint64_t issued_total() const;
  std::uint64_t shard_issued_total(std::uint32_t k) const;

  /// Rewrites every shard to its minimal form — one REGISTER record plus
  /// chunked ISSUE records per live device, revoked devices gone — each
  /// shard committed via write-temp-then-rename. Register record bytes are
  /// copied verbatim, so models stay bit-exact without being decoded.
  void compact();

  /// Current end offset of shard `k` — the durable high-water mark the
  /// truncation torture test records after each op.
  std::uint64_t shard_size(std::uint32_t k) const { return log_.shard(k).size(); }

  std::size_t cache_size() const;
  std::size_t cache_capacity() const { return cache_.capacity(); }

 private:
  EnrollmentStore(ShardedLog log, StoreOptions options);

  void replay_shard(std::uint32_t k);
  void append_record(std::uint32_t shard, const std::vector<std::uint8_t>& bytes);
  void refresh_ledger_gauges(std::uint32_t shard) const;

  void remap_shard(std::uint32_t k);

  StoreOptions options_;
  ShardedLog log_;
  std::map<std::uint64_t, DeviceRecord> index_;
  std::map<std::uint64_t, PoolSlot> pools_;
  /// Fleet-wide undrained pool entries (sum of count - head over pools_),
  /// maintained incrementally at every slot mutation so the auth.pool_size
  /// gauge refresh on the issue() hot path is O(1) instead of an O(fleet)
  /// map scan. Guarded by pool_mu_.
  std::uint64_t pool_undrained_ = 0;
  /// Per-shard read-only mappings for zero-copy serving. Length-frozen at
  /// open()/compact(); records appended later fall back to the decode path.
  /// Handed-out views co-own their mapping, so swapping a shard's entry
  /// never invalidates a live view.
  std::vector<std::shared_ptr<const MappedFile>> maps_;
  std::map<std::uint64_t, ChallengeSet> ledgers_;
  mutable ModelCache cache_;
  std::unique_ptr<std::mutex[]> shard_mu_;
  mutable std::unique_ptr<std::mutex> cache_mu_;
  mutable std::unique_ptr<std::mutex> pool_mu_;  ///< guards pools_
  std::unique_ptr<std::atomic<std::uint64_t>[]> shard_ledger_total_;
  std::vector<Gauge*> shard_gauges_;
};

}  // namespace xpuf::puf::store
