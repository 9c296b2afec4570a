#include "puf/database.hpp"

#include <charconv>
#include <filesystem>
#include <utility>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "puf/model_store.hpp"

namespace xpuf::puf {

namespace {

/// Parses the `<id>` of a legacy `ledger_<id>.csv` filename. Exact integer
/// parse — any non-digit residue means the file is not one of ours.
bool parse_ledger_id(const std::string& filename, std::size_t& id) {
  constexpr const char* kPrefix = "ledger_";
  constexpr const char* kSuffix = ".csv";
  if (filename.rfind(kPrefix, 0) != 0) return false;
  const std::size_t prefix_len = std::string(kPrefix).size();
  const std::size_t suffix_len = std::string(kSuffix).size();
  if (filename.size() <= prefix_len + suffix_len) return false;
  if (filename.compare(filename.size() - suffix_len, suffix_len, kSuffix) != 0) return false;
  const char* begin = filename.data() + prefix_len;
  const char* end = filename.data() + filename.size() - suffix_len;
  const auto [ptr, ec] = std::from_chars(begin, end, id);
  return ec == std::errc() && ptr == end;
}

/// Converts one legacy '0'/'1' ledger row into the packed key format,
/// validating it against the device's stage count.
std::string packed_key_from_legacy(const std::string& row, std::size_t stages,
                                   const std::string& path) {
  XPUF_REQUIRE(stages > 0, "legacy ledger conversion needs the model geometry");
  if (row.size() != stages)
    throw ParseError(path + ": ledger challenge has " + std::to_string(row.size()) +
                     " bits, device model has " + std::to_string(stages) + " stages");
  Challenge challenge;
  challenge.reserve(row.size());
  for (char ch : row) {
    if (ch != '0' && ch != '1')
      throw ParseError(path + ": corrupt challenge encoding in ledger");
    challenge.push_back(ch == '1' ? 1 : 0);
  }
  return store::pack_challenge(challenge);
}

}  // namespace

ServerDatabase::ServerDatabase(ServerDatabase&& other) noexcept
    : config_(other.config_),
      models_(std::move(other.models_)),
      issued_(std::move(other.issued_)),
      ledger_total_(other.ledger_total_.load(std::memory_order_relaxed)),
      mem_pools_(std::move(other.mem_pools_)),
      mem_pool_undrained_(other.mem_pool_undrained_),
      mem_pool_mu_(std::move(other.mem_pool_mu_)),
      store_(std::move(other.store_)) {}

ServerDatabase& ServerDatabase::operator=(ServerDatabase&& other) noexcept {
  if (this != &other) {
    config_ = other.config_;
    models_ = std::move(other.models_);
    issued_ = std::move(other.issued_);
    ledger_total_.store(other.ledger_total_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    mem_pools_ = std::move(other.mem_pools_);
    mem_pool_undrained_ = other.mem_pool_undrained_;
    mem_pool_mu_ = std::move(other.mem_pool_mu_);
    store_ = std::move(other.store_);
  }
  return *this;
}

ServerDatabase ServerDatabase::open(const std::string& directory, DatabaseConfig config,
                                    store::StoreOptions options) {
  XPUF_TRACE_SPAN("db.open");
  ServerDatabase db(config);
  db.store_ = std::make_unique<store::EnrollmentStore>(
      store::EnrollmentStore::open(directory, options));
  return db;
}

const store::EnrollmentStore& ServerDatabase::store() const {
  XPUF_REQUIRE(store_ != nullptr, "store() on an in-memory database");
  return *store_;
}

void ServerDatabase::register_device(ServerModel model) {
  XPUF_REQUIRE(model.puf_count() >= config_.n_pufs,
               "enrolled model has fewer PUFs than the database XOR width");
  const std::size_t id = model.chip_id();
  if (store_ != nullptr) {
    store_->register_device(std::move(model));
  } else {
    XPUF_REQUIRE(!knows(id), "device already registered");
    models_.emplace(id, std::move(model));
    issued_[id];
  }
  if (config_.pool.target > 0) {
    // Enrollment pre-screens the device's issuance pool so its first
    // authentications are pure drains. The registration path just warmed
    // the cache, so resolve_view() is a cheap cache hit here.
    const ModelView view = resolve_view(id);
    (void)refill_pool(id, view, store_ != nullptr ? store_->ledger(id) : issued_.at(id));
  }
}

void ServerDatabase::revoke_device(std::size_t chip_id) {
  if (store_ != nullptr) {
    store_->revoke_device(chip_id);
    return;
  }
  XPUF_REQUIRE(knows(chip_id), "revoking an unknown device");
  const std::uint64_t dropped = issued_.at(chip_id).size();
  models_.erase(chip_id);
  issued_.erase(chip_id);
  {
    std::lock_guard<std::mutex> lock(*mem_pool_mu_);
    if (const auto it = mem_pools_.find(chip_id); it != mem_pools_.end()) {
      mem_pool_undrained_ -= it->second.pool.keys.size() - it->second.head;
      mem_pools_.erase(it);
    }
  }
  const std::uint64_t total =
      ledger_total_.fetch_sub(dropped, std::memory_order_relaxed) - dropped;
  static Gauge& ledger_size = MetricsRegistry::global().gauge("db.ledger_size");
  ledger_size.set(static_cast<double>(total));
}

const ServerModel& ServerDatabase::model(std::size_t chip_id) const {
  XPUF_REQUIRE(store_ == nullptr,
               "a backed database serves models through the bounded cache; "
               "use model_snapshot()");
  const auto it = models_.find(chip_id);
  XPUF_REQUIRE(it != models_.end(), "unknown device id");
  return it->second;
}

std::shared_ptr<const ServerModel> ServerDatabase::model_snapshot(std::size_t chip_id) const {
  // Both branches bounds-check chip_id (store::EnrollmentStore::model and
  // model() respectively).
  return store_ != nullptr ? store_->model(chip_id)
                           : std::make_shared<const ServerModel>(model(chip_id));
}

ModelView ServerDatabase::resolve_view(std::size_t chip_id) const {
  if (store_ != nullptr) return store_->model_view(chip_id);
  const auto it = models_.find(chip_id);
  XPUF_REQUIRE(it != models_.end(), "unknown device id");
  return ModelView::of(it->second);
}

std::set<std::string>& ServerDatabase::ledger_ref(std::size_t chip_id) {
  // Find-based on purpose: issue() must never mutate the ledger map itself,
  // so concurrent calls for DISTINCT pre-registered devices touch disjoint
  // ledgers (see the concurrency contract in database.hpp).
  if (store_ != nullptr) return store_->ledger(chip_id);
  const auto it = issued_.find(chip_id);
  XPUF_REQUIRE(it != issued_.end(), "unknown device id");
  return it->second;
}

std::uint32_t ServerDatabase::device_stages(std::size_t chip_id) const {
  if (store_ != nullptr) return store_->device_record(chip_id).stages;
  const auto it = models_.find(chip_id);
  XPUF_REQUIRE(it != models_.end(), "unknown device id");
  return static_cast<std::uint32_t>(it->second.stages());
}

StreamFamily ServerDatabase::device_family(std::size_t chip_id) const {
  // Mixed per-device base: distinct devices walk disjoint candidate streams,
  // and the whole pooled issuance history is reproducible from
  // (pool.seed, chip_id) — no caller RNG involved.
  return StreamFamily(config_.pool.seed ^
                      (0xa24baed4963ee407ull * (static_cast<std::uint64_t>(chip_id) + 1)));
}

// A device without a pool is legal — the bool return is the signal, and
// every out-param is written before a true return.
// xpuf-lint: allow(require-guard)
bool ServerDatabase::pool_peek(std::size_t chip_id, std::uint32_t& head,
                               std::uint32_t& count, std::uint64_t& cursor,
                               std::uint32_t& epoch) const {
  if (store_ != nullptr) {
    store::PoolSlot slot;
    if (!store_->pool_slot(chip_id, slot)) return false;
    head = slot.head;
    count = slot.count;
    cursor = slot.cursor;
    epoch = slot.epoch;
    return true;
  }
  std::lock_guard<std::mutex> lock(*mem_pool_mu_);
  const auto it = mem_pools_.find(chip_id);
  if (it == mem_pools_.end()) return false;
  head = it->second.head;
  count = static_cast<std::uint32_t>(it->second.pool.keys.size());
  cursor = it->second.pool.cursor;
  epoch = it->second.pool.epoch;
  return true;
}

void ServerDatabase::pool_read(std::size_t chip_id, std::uint32_t first, std::uint32_t n,
                               std::vector<std::string>& keys,
                               std::vector<std::uint8_t>& expected) const {
  if (store_ != nullptr) {
    store_->read_pool_slice(chip_id, first, n, keys, expected);
    return;
  }
  std::lock_guard<std::mutex> lock(*mem_pool_mu_);
  const auto it = mem_pools_.find(chip_id);
  XPUF_REQUIRE(it != mem_pools_.end(), "device has no pool");
  XPUF_REQUIRE(first + n <= it->second.pool.keys.size(), "pool slice out of range");
  for (std::uint32_t i = first; i < first + n; ++i) {
    keys.push_back(it->second.pool.keys[i]);
    expected.push_back(it->second.pool.expected[i]);
  }
}

void ServerDatabase::pool_set_head(std::size_t chip_id, std::uint32_t head) {
  if (store_ != nullptr) {
    store_->set_pool_head(chip_id, head);
    return;
  }
  std::lock_guard<std::mutex> lock(*mem_pool_mu_);
  const auto it = mem_pools_.find(chip_id);
  XPUF_REQUIRE(it != mem_pools_.end(), "device has no pool");
  mem_pool_undrained_ -= head - it->second.head;
  it->second.head = head;
}

void ServerDatabase::pool_write(std::size_t chip_id, store::PoolPayload pool) {
  XPUF_REQUIRE(pool.keys.size() == pool.expected.size(),
               "pool rows and expected bits must align");
  if (store_ != nullptr) {
    store_->record_pool(chip_id, pool);
    return;
  }
  std::lock_guard<std::mutex> lock(*mem_pool_mu_);
  MemPool& entry = mem_pools_[chip_id];
  mem_pool_undrained_ -= entry.pool.keys.size() - entry.head;
  mem_pool_undrained_ += pool.keys.size();
  entry.pool = std::move(pool);
  entry.head = 0;
}

std::uint64_t ServerDatabase::pool_entries_total() const {
  if (store_ != nullptr) return store_->pool_entries_total();
  std::lock_guard<std::mutex> lock(*mem_pool_mu_);
  return mem_pool_undrained_;
}

std::size_t ServerDatabase::pool_remaining(std::size_t chip_id) const {
  XPUF_REQUIRE(knows(chip_id), "pool_remaining for an unregistered device");
  std::uint32_t head = 0, count = 0, epoch = 0;
  std::uint64_t cursor = 0;
  if (!pool_peek(chip_id, head, count, cursor, epoch)) return 0;
  return count - head;
}

std::size_t ServerDatabase::refill_pool(std::size_t chip_id, const ModelView& view,
                                        const std::set<std::string>& ledger) {
  XPUF_TRACE_SPAN("db.pool_refill");
  XPUF_REQUIRE(config_.pool.target >= 1, "refill_pool requires pooling enabled");
  static Counter& refills = MetricsRegistry::global().counter("auth.pool_refills");
  std::uint32_t head = 0, count = 0, epoch = 0;
  std::uint64_t cursor = 0;
  const bool existed = pool_peek(chip_id, head, count, cursor, epoch);
  store::PoolPayload next;
  next.stages = static_cast<std::uint32_t>(view.stages());
  next.epoch = existed ? epoch + 1 : 1;
  const std::uint64_t start = existed ? cursor : 0;
  // Undrained leftovers carry over — screened work is never thrown away.
  if (existed && head < count) pool_read(chip_id, head, count - head, next.keys, next.expected);
  const std::size_t want =
      config_.pool.target > next.keys.size() ? config_.pool.target - next.keys.size() : 0;
  std::size_t tried = 0;
  if (want > 0) {
    ChallengeScreener screener(view, config_.n_pufs, config_.screening);
    const StreamFamily family = device_family(chip_id);
    // Keys already waiting in the pool: the undrained carry-over, then each
    // one this walk accepts.
    std::set<std::string> pooled(next.keys.begin(), next.keys.end());
    const ChallengeScreener::Sink sink = [&](Challenge&& challenge, bool bit) {
      std::string key = store::pack_challenge(challenge);
      // Already-issued and already-pooled challenges never enter the pool;
      // skipping them here (instead of at drain time) keeps the drain's
      // replay count a pure reuse / crash-recovery signal. With short
      // challenges a refill can meet a key that is still undrained.
      if (ledger.count(key) != 0 || !pooled.insert(key).second) return false;
      next.keys.push_back(std::move(key));
      next.expected.push_back(bit ? 1 : 0);
      return true;
    };
    const ChallengeScreener::Outcome outcome = screener.screen(
        family, start, want, config_.policy.max_selection_attempts, sink);
    record_screening(outcome.tried, outcome.accepted);
    next.cursor = outcome.next_index;
    tried = outcome.tried;
  } else {
    next.cursor = start;
  }
  pool_write(chip_id, std::move(next));
  refills.add(1);
  static Gauge& pool_size = MetricsRegistry::global().gauge("auth.pool_size");
  pool_size.set(static_cast<double>(pool_entries_total()));
  return tried;
}

void ServerDatabase::fill_live(const ModelView& view, std::set<std::string>& ledger,
                               ChallengeBatch& batch, std::vector<std::string>& fresh,
                               Rng& rng) {
  XPUF_REQUIRE(batch.challenges.size() < config_.policy.challenge_count,
               "fill_live called with an already-full batch");
  const std::size_t need = config_.policy.challenge_count - batch.challenges.size();
  ChallengeScreener screener(view, config_.n_pufs, config_.screening);
  const StreamFamily family(rng.fork_base());
  const ChallengeScreener::Sink sink = [&](Challenge&& challenge, bool bit) {
    std::string key = store::pack_challenge(challenge);
    if (!ledger.insert(key).second) {
      // Replay-guarded: this stable challenge was issued to the device
      // before (e.g. a reused issuance seed); count the rejection — it is
      // the chosen-challenge-attack signal the server must observe.
      ++batch.replay_rejected;
      return false;
    }
    fresh.push_back(std::move(key));
    batch.challenges.push_back(std::move(challenge));
    batch.expected.push_back(bit);
    return true;
  };
  const ChallengeScreener::Outcome outcome = screener.screen(
      family, 0, need, config_.policy.max_selection_attempts, sink);
  batch.candidates_tried += outcome.tried;
  record_screening(outcome.tried, outcome.accepted);
  if (!outcome.filled)
    throw NumericalError("challenge issuance exhausted its attempt budget");
}

void ServerDatabase::finish_issue(std::size_t chip_id, std::uint32_t stages,
                                  ChallengeBatch& batch,
                                  const std::vector<std::string>& fresh) {
  XPUF_REQUIRE(batch.challenges.size() == batch.expected.size(),
               "issued rows and expected bits must align");
  auto& registry = MetricsRegistry::global();
  static Counter& replay = registry.counter("auth.replay_rejected");
  static Counter& issued = registry.counter("db.challenges_issued");
  static Gauge& ledger_size = registry.gauge("db.ledger_size");
  replay.add(batch.replay_rejected);
  issued.add(batch.challenges.size());
  if (store_ != nullptr) {
    // Durable acknowledgement: the challenges exist on disk before the
    // caller can send them anywhere (the store refreshes the gauges).
    store_->record_issued(chip_id, stages, fresh);
  } else {
    const std::uint64_t total =
        ledger_total_.fetch_add(fresh.size(), std::memory_order_relaxed) + fresh.size();
    ledger_size.set(static_cast<double>(total));
  }
}

ChallengeBatch ServerDatabase::issue_live(std::size_t chip_id, Rng& rng) {
  XPUF_TRACE_SPAN("db.issue_live");
  XPUF_REQUIRE(config_.policy.challenge_count > 0, "an authentication batch cannot be empty");
  const ModelView view = resolve_view(chip_id);
  std::set<std::string>& ledger = ledger_ref(chip_id);
  ChallengeBatch batch;
  std::vector<std::string> fresh;
  fresh.reserve(config_.policy.challenge_count);
  fill_live(view, ledger, batch, fresh, rng);
  finish_issue(chip_id, static_cast<std::uint32_t>(view.stages()), batch, fresh);
  return batch;
}

ChallengeBatch ServerDatabase::issue(std::size_t chip_id, Rng& rng) {
  XPUF_TRACE_SPAN("db.issue_batch");
  XPUF_REQUIRE(config_.policy.challenge_count > 0, "an authentication batch cannot be empty");
  auto& registry = MetricsRegistry::global();
  static Counter& requests = registry.counter("db.issue_requests");
  static Counter& pool_hits = registry.counter("auth.pool_hits");
  static Counter& pool_misses = registry.counter("auth.pool_misses");
  static Gauge& pool_size = registry.gauge("auth.pool_size");
  requests.add(1);
  if (config_.pool.target == 0) {
    pool_misses.add(1);
    return issue_live(chip_id, rng);
  }
  const std::uint32_t stages = device_stages(chip_id);
  std::set<std::string>& ledger = ledger_ref(chip_id);
  ChallengeBatch batch;
  std::vector<std::string> fresh;
  fresh.reserve(config_.policy.challenge_count);
  bool pool_ok = true;
  std::size_t dry_refills = 0;
  while (batch.challenges.size() < config_.policy.challenge_count) {
    std::uint32_t head = 0, count = 0, epoch = 0;
    std::uint64_t cursor = 0;
    if (!pool_peek(chip_id, head, count, cursor, epoch) || head >= count) {
      // Empty (or absent: a fleet enrolled before pooling was turned on):
      // refill in place. Two consecutive refills without a drainable entry
      // mean screening is dry — bypass to live.
      if (dry_refills++ >= 2) {
        pool_ok = false;
        break;
      }
      const ModelView view = resolve_view(chip_id);
      batch.candidates_tried += refill_pool(chip_id, view, ledger);
      continue;
    }
    dry_refills = 0;
    const auto need = static_cast<std::uint32_t>(config_.policy.challenge_count -
                                                 batch.challenges.size());
    const std::uint32_t take = std::min(count - head, need);
    std::vector<std::string> keys;
    std::vector<std::uint8_t> expected;
    pool_read(chip_id, head, take, keys, expected);
    for (std::uint32_t i = 0; i < take; ++i) {
      if (!ledger.insert(keys[i]).second) {
        // Only a crash-recovery re-drain reaches here: replay reset the
        // drain head, and the durable ledger screens out what was already
        // sent. Counted — it is still an issued-challenge-reuse signal.
        ++batch.replay_rejected;
        continue;
      }
      batch.challenges.push_back(store::unpack_challenge(keys[i], stages));
      batch.expected.push_back(expected[i] != 0);
      fresh.push_back(std::move(keys[i]));
    }
    pool_set_head(chip_id, head + take);
  }
  if (pool_ok) {
    pool_hits.add(1);
  } else {
    pool_misses.add(1);
    const ModelView view = resolve_view(chip_id);
    fill_live(view, ledger, batch, fresh, rng);
  }
  // Low-water top-up after serving, so the next issue is a pure drain.
  if (pool_ok && pool_remaining(chip_id) < config_.pool.low_water) {
    const ModelView view = resolve_view(chip_id);
    batch.candidates_tried += refill_pool(chip_id, view, ledger);
  }
  pool_size.set(static_cast<double>(pool_entries_total()));
  finish_issue(chip_id, stages, batch, fresh);
  return batch;
}

AuthenticationOutcome ServerDatabase::verify(std::size_t chip_id,
                                             const ChallengeBatch& batch,
                                             const std::vector<bool>& responses) const {
  XPUF_REQUIRE(knows(chip_id), "unknown device id");
  // Pure policy over the batch's expected bits: no model resolution, no
  // cache traffic — the whole verification is a Hamming-distance check.
  return apply_auth_policy(batch, responses, config_.policy);
}

DatabaseAuthOutcome ServerDatabase::authenticate(const sim::XorPufChip& chip,
                                                 const sim::Environment& env, Rng& rng) {
  XPUF_TRACE_SPAN("db.authenticate");
  static Counter& requests = MetricsRegistry::global().counter("db.auth_requests");
  static Counter& unknown = MetricsRegistry::global().counter("db.unknown_device");
  requests.add(1);
  DatabaseAuthOutcome out;
  if (!knows(chip.id())) {  // unknown device: denied by default
    unknown.add(1);
    return out;
  }
  out.known_device = true;
  const ChallengeBatch batch = issue(chip.id(), rng);
  out.replay_rejected = batch.replay_rejected;
  std::vector<bool> responses;
  responses.reserve(batch.challenges.size());
  for (const auto& c : batch.challenges) responses.push_back(chip.xor_response(c, env, rng));
  out.outcome = verify(chip.id(), batch, responses);
  return out;
}

std::size_t ServerDatabase::issued_count(std::size_t chip_id) const {
  if (store_ != nullptr) return store_->ledger(chip_id).size();
  const auto it = issued_.find(chip_id);
  XPUF_REQUIRE(it != issued_.end(), "unknown device id");
  return it->second.size();
}

void ServerDatabase::save(const std::string& directory) const {
  XPUF_TRACE_SPAN("db.save");
  static Gauge& devices = MetricsRegistry::global().gauge("db.devices");
  if (store_ != nullptr) {
    // A backed database is already durable record by record; save() is the
    // compaction point, and it only makes sense in the store's own home.
    XPUF_REQUIRE(directory == store_->dir(),
                 "a backed database saves in place (compaction)");
    store_->compact();
    devices.set(static_cast<double>(store_->device_count()));
    return;
  }
  // In-memory mode: commit the complete binary snapshot first (every file
  // lands via write-temp-then-rename), and only then clear legacy CSV
  // files — the reverse of the old delete-then-write order, so a crash at
  // any byte leaves a loadable directory. load() prefers the manifest, so
  // a crash between the two phases (both formats present) reads the new one.
  store::write_snapshot(directory, store::StoreOptions{}.n_shards, models_, issued_);
  namespace fs = std::filesystem;
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const bool device_file = name.rfind("device_", 0) == 0;
    const bool ledger_file = name.rfind("ledger_", 0) == 0;
    if (device_file || ledger_file) fs::remove(entry.path());
  }
  devices.set(static_cast<double>(models_.size()));
}

ServerDatabase ServerDatabase::load(const std::string& directory, DatabaseConfig config) {
  XPUF_TRACE_SPAN("db.load");
  ServerDatabase db(config);
  namespace fs = std::filesystem;
  XPUF_REQUIRE(fs::is_directory(directory), "database directory does not exist");
  std::uint64_t total = 0;
  if (store::EnrollmentStore::is_store_dir(directory)) {
    // Binary store: replay the op log. A tiny cache keeps the replay from
    // holding the fleet twice while models are copied into the registry.
    store::StoreOptions options;
    options.cache_capacity = 1;
    const store::EnrollmentStore st = store::EnrollmentStore::open(directory, options);
    for (const std::uint64_t id : st.device_ids()) {
      db.models_.emplace(static_cast<std::size_t>(id), ServerModel(*st.model(id)));
      db.issued_[static_cast<std::size_t>(id)] = st.ledger(id);
    }
    total = st.issued_total();
  } else {
    std::vector<fs::path> ledger_files;
    for (const auto& entry : fs::directory_iterator(directory)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("ledger_", 0) == 0) {
        ledger_files.push_back(entry.path());
        continue;
      }
      if (name.rfind("device_", 0) != 0) continue;
      ServerModel m = load_server_model(entry.path().string());
      db.register_device(std::move(m));
    }
    for (const fs::path& path : ledger_files) {
      std::size_t id = 0;
      if (!parse_ledger_id(path.filename().string(), id)) continue;
      if (!db.knows(id))
        throw ParseError(path.string() + ": orphaned ledger (device_" +
                         std::to_string(id) + " is missing) — a mid-save crash left "
                         "issued challenges behind; refusing to silently forget them");
      const std::size_t stages = db.models_.at(id).stages();
      const CsvData ledger = read_csv(path.string());
      for (const auto& row : ledger.rows) {
        if (row.empty() || row[0].empty()) continue;
        if (db.issued_[id].insert(packed_key_from_legacy(row[0], stages, path.string()))
                .second)
          ++total;
      }
    }
  }
  db.ledger_total_.store(total, std::memory_order_relaxed);
  auto& registry = MetricsRegistry::global();
  static Gauge& devices = registry.gauge("db.devices");
  static Gauge& ledger_size = registry.gauge("db.ledger_size");
  devices.set(static_cast<double>(db.models_.size()));
  ledger_size.set(static_cast<double>(total));
  return db;
}

}  // namespace xpuf::puf
