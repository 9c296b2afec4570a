// Multi-device server database and authentication front end.
//
// The paper's server stores per-chip delay parameters and thresholds "in
// the server database" and runs the Fig 7 flow per authentication request.
// This module is the deployment-shaped wrapper around those pieces: a
// registry of enrolled chips, per-device authentication with the zero-HD
// policy, and challenge-replay protection (a challenge is never reused for a
// device — otherwise an eavesdropper could replay recorded responses).
//
// Every ServerDatabase fronts a store::EnrollmentStore, the one place device
// state lives: each register/revoke/issue/pool refill is appended to a
// sharded crc'd op log before the call returns, ledgers stay memory-resident,
// and model weights are served through a capacity-bounded LRU cache
// (db.cache_hits/db.cache_misses/db.cache_evictions), so authentication over
// a million-device fleet runs in bounded memory. open(dir) puts that store in
// a caller-named directory, durable across processes and crashes; save()
// compacts it in place. The plain constructor puts it in a fresh private
// directory under the system temp path that the database deletes when it
// dies — the same log code, but NOT durable past the object's lifetime.
//
// Concurrency contract: issue(), verify(), authenticate() and the const
// accessors are safe to call concurrently for DISTINCT pre-registered
// devices — they never mutate the store's index or ledger maps, only the
// per-device ledger set the caller's device owns, and the store locks its
// shared cache, pool slots and shard files internally. register_device(),
// revoke_device() and save() mutate the maps and require exclusive access;
// the net/ ServiceEngine satisfies this by giving each shard its own
// ServerDatabase and keeping all calls on the owning shard lane.
// tests/test_observability.cpp exercises the concurrent half of the contract
// under TSan, with pooling off and on.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "puf/authentication.hpp"
#include "puf/screening.hpp"
#include "puf/store/store.hpp"

namespace xpuf::puf {

/// Per-device pre-screened stable-challenge pools — the issuance hot path.
/// With pooling on, registration (and a low-water refill) screens `target`
/// predicted-stable challenges per device through the batched screener and
/// persists them as a durable POOL record, so a steady-state issue() drains
/// O(challenge_count) entries instead of rejection-sampling
/// ~challenge_count / 0.800^n live candidates. Pool candidates come from a
/// per-device StreamFamily keyed by `seed ^ f(device_id)` with a persisted
/// resume cursor, so the pooled challenge sequence is a pure function of
/// (seed, device, drain history) — crash + replay re-drains the same prefix
/// and the replay ledger screens out what was already issued.
struct PoolPolicy {
  std::size_t target = 0;     ///< pool entries per device; 0 disables pooling
  std::size_t low_water = 8;  ///< refill when undrained entries drop below this
  std::uint64_t seed = 0x706f6f6c73656564ull;  ///< pool stream family base
};

struct DatabaseConfig {
  std::size_t n_pufs = 10;  ///< XOR width used for every device
  AuthenticationPolicy policy;
  ScreeningOptions screening;  ///< candidate screening mode (batched default)
  PoolPolicy pool;             ///< issuance pools (disabled by default)
};

/// Result of a database-level authentication request.
struct DatabaseAuthOutcome {
  bool known_device = false;
  AuthenticationOutcome outcome;
  std::size_t replay_rejected = 0;  ///< candidates dropped by replay guard
};

class ServerDatabase {
 public:
  /// A database over a private store in a fresh directory under
  /// std::filesystem::temp_directory_path(), removed on destruction. One
  /// shard: an engine running a database per lane holds one log file each.
  explicit ServerDatabase(DatabaseConfig config);

  /// Opens (creating if needed) a database over the durable store at
  /// `directory`; the directory outlives the object.
  static ServerDatabase open(const std::string& directory, DatabaseConfig config,
                             store::StoreOptions options = {});

  /// The underlying store (introspection: shard totals, cache occupancy,
  /// compaction offsets).
  const store::EnrollmentStore& store() const { return store_; }

  const DatabaseConfig& config() const { return config_; }
  std::size_t device_count() const { return store_.device_count(); }
  bool knows(std::size_t chip_id) const { return store_.knows(chip_id); }

  /// Registers an enrolled chip; rejects duplicate ids and width mismatches.
  void register_device(ServerModel model);

  /// Removes a device and its replay history.
  void revoke_device(std::size_t chip_id);

  /// The cached (or freshly decoded) model, kept alive by the shared_ptr
  /// across evictions.
  std::shared_ptr<const ServerModel> model_snapshot(std::size_t chip_id) const {
    return store_.model(chip_id);
  }

  /// Issues a fresh stable-challenge batch for a device, excluding every
  /// challenge the server has ever sent to it (replay protection). The
  /// issued challenges are recorded immediately. With pooling enabled the
  /// batch drains the device's pre-screened pool (auth.pool_hits) and only
  /// falls back to live screening when the pool cannot be refilled
  /// (auth.pool_misses); `rng` is consumed only on that fallback, so the
  /// pooled sequence is reproducible from the pool seed alone.
  ChallengeBatch issue(std::size_t chip_id, Rng& rng);

  /// The live-screening issuance path, pool-bypassing by construction:
  /// screens candidates from a stream forked off `rng` (exactly one
  /// fork_base() draw) against the device's model. This is issue()'s
  /// fallback and the reference side of the pooled-vs-live bench A/B.
  ChallengeBatch issue_live(std::size_t chip_id, Rng& rng);

  /// Undrained pre-screened challenges currently pooled for a device
  /// (0 when it has no pool).
  std::size_t pool_remaining(std::size_t chip_id) const;

  /// Verifies responses against the batch the caller passes back — pure
  /// policy over the batch's expected bits (apply_auth_policy); no model is
  /// resolved, so verification never touches the cache or the log.
  AuthenticationOutcome verify(std::size_t chip_id, const ChallengeBatch& batch,
                               const std::vector<bool>& responses) const;

  /// Full round trip against a physical chip.
  DatabaseAuthOutcome authenticate(const sim::XorPufChip& chip,
                                   const sim::Environment& env, Rng& rng);

  /// Challenges ever issued to a device.
  std::size_t issued_count(std::size_t chip_id) const {
    return store_.ledger(chip_id).size();
  }

  /// Compacts the store in place (`directory` must be the store's own
  /// directory): every op is already durable, so this only shrinks the log.
  void save(const std::string& directory);

 private:
  /// Owns a private store's directory and removes it on destruction. Empty
  /// for open() databases and after a move.
  class OwnedDir {
   public:
    OwnedDir() = default;
    explicit OwnedDir(std::string path) : path_(std::move(path)) {}
    OwnedDir(OwnedDir&& other) noexcept : path_(std::exchange(other.path_, {})) {}
    OwnedDir& operator=(OwnedDir&& other) noexcept;
    OwnedDir(const OwnedDir&) = delete;
    OwnedDir& operator=(const OwnedDir&) = delete;
    ~OwnedDir();
    const std::string& path() const { return path_; }

   private:
    std::string path_;
  };

  ServerDatabase(DatabaseConfig config, store::EnrollmentStore store);

  /// The device's pool candidate stream family — pure function of
  /// (config_.pool.seed, chip_id).
  StreamFamily device_family(std::size_t chip_id) const;

  /// (Re)builds the device's pool: carries over undrained entries, screens
  /// fresh candidates from the persisted cursor, persists the result with
  /// head = 0 and a bumped epoch. Returns candidates tried (the caller adds
  /// it to the batch's accounting).
  std::size_t refill_pool(std::size_t chip_id, const ModelView& view,
                          const std::set<std::string>& ledger);
  /// Completes `batch` to challenge_count via live screening (the shared
  /// kernel of issue_live and the pool-bypass fallback).
  void fill_live(const ModelView& view, std::set<std::string>& ledger,
                 ChallengeBatch& batch, std::vector<std::string>& fresh, Rng& rng);
  /// Common issue() epilogue: replay/issued metrics + durable ledger append.
  void finish_issue(std::size_t chip_id, std::uint32_t stages, ChallengeBatch& batch,
                    const std::vector<std::string>& fresh);

  DatabaseConfig config_;
  OwnedDir owned_dir_;  ///< declared before store_, so removed after it closes
  store::EnrollmentStore store_;
};

}  // namespace xpuf::puf
