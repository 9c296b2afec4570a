#include "puf/database.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf {

namespace {

/// A fresh directory for a private store. The pid keeps concurrent
/// processes apart, the counter keeps databases of one process apart, and
/// create_directory() refusing an existing path skips a stale leftover.
std::string fresh_private_dir() {
  namespace fs = std::filesystem;
  static std::atomic<std::uint64_t> next{0};
  const fs::path base = fs::temp_directory_path();
  for (;;) {
    const fs::path dir = base / ("xpuf_private_db_" + std::to_string(::getpid()) + "_" +
                                 std::to_string(next.fetch_add(1)));
    if (fs::create_directory(dir)) return dir.string();
  }
}

store::StoreOptions private_store_options() {
  store::StoreOptions options;
  options.n_shards = 1;
  return options;
}

}  // namespace

ServerDatabase::OwnedDir& ServerDatabase::OwnedDir::operator=(OwnedDir&& other) noexcept {
  if (this != &other) {
    OwnedDir dying(std::move(*this));
    path_ = std::exchange(other.path_, {});
  }
  return *this;
}

ServerDatabase::OwnedDir::~OwnedDir() {
  if (path_.empty()) return;
  std::error_code ignored;  // a destructor cannot report; leave the residue
  std::filesystem::remove_all(path_, ignored);
}

ServerDatabase::ServerDatabase(DatabaseConfig config)
    : config_(config),
      owned_dir_(fresh_private_dir()),
      store_(store::EnrollmentStore::open(owned_dir_.path(), private_store_options())) {}

ServerDatabase::ServerDatabase(DatabaseConfig config, store::EnrollmentStore store)
    : config_(config), store_(std::move(store)) {}

ServerDatabase ServerDatabase::open(const std::string& directory, DatabaseConfig config,
                                    store::StoreOptions options) {
  XPUF_TRACE_SPAN("db.open");
  return ServerDatabase(config, store::EnrollmentStore::open(directory, options));
}

void ServerDatabase::register_device(ServerModel model) {
  XPUF_REQUIRE(model.puf_count() >= config_.n_pufs,
               "enrolled model has fewer PUFs than the database XOR width");
  const std::size_t id = model.chip_id();
  store_.register_device(std::move(model));
  if (config_.pool.target > 0) {
    // Enrollment pre-screens the device's issuance pool so its first
    // authentications are pure drains. The registration path just warmed
    // the cache, so model_view() is a cheap cache hit here.
    (void)refill_pool(id, store_.model_view(id), store_.ledger(id));
  }
}

void ServerDatabase::revoke_device(std::size_t chip_id) { store_.revoke_device(chip_id); }

StreamFamily ServerDatabase::device_family(std::size_t chip_id) const {
  // Mixed per-device base: distinct devices walk disjoint candidate streams,
  // and the whole pooled issuance history is reproducible from
  // (pool.seed, chip_id) — no caller RNG involved.
  return StreamFamily(config_.pool.seed ^
                      (0xa24baed4963ee407ull * (static_cast<std::uint64_t>(chip_id) + 1)));
}

std::size_t ServerDatabase::pool_remaining(std::size_t chip_id) const {
  XPUF_REQUIRE(knows(chip_id), "pool_remaining for an unregistered device");
  store::PoolSlot slot;
  return store_.pool_slot(chip_id, slot) ? slot.count - slot.head : 0;
}

std::size_t ServerDatabase::refill_pool(std::size_t chip_id, const ModelView& view,
                                        const store::ChallengeSet& ledger) {
  XPUF_TRACE_SPAN("db.pool_refill");
  XPUF_REQUIRE(config_.pool.target >= 1, "refill_pool requires pooling enabled");
  static Counter& refills = MetricsRegistry::global().counter("auth.pool_refills");
  store::PoolSlot slot;
  const bool existed = store_.pool_slot(chip_id, slot);
  store::PoolPayload next;
  next.stages = static_cast<std::uint32_t>(view.stages());
  next.epoch = existed ? slot.epoch + 1 : 1;
  const std::uint64_t start = existed ? slot.cursor : 0;
  // Undrained leftovers carry over — screened work is never thrown away.
  if (existed && slot.head < slot.count)
    store_.read_pool_slice(chip_id, slot.head, slot.count - slot.head, next.words,
                           next.expected);
  const std::size_t want =
      config_.pool.target > next.size() ? config_.pool.target - next.size() : 0;
  std::size_t tried = 0;
  if (want > 0) {
    ChallengeScreener screener(view, config_.n_pufs);
    const StreamFamily family = device_family(chip_id);
    // Rows already waiting in the pool: the undrained carry-over, then each
    // one this walk accepts.
    const std::size_t stride = sim::packed_words(next.stages);
    store::ChallengeSet pooled(next.stages);
    pooled.reserve(config_.pool.target);
    for (std::size_t at = 0; at < next.words.size(); at += stride)
      pooled.insert({next.words.data() + at, stride});
    const ChallengeScreener::Sink sink = [&](std::span<const std::uint64_t> row, bool bit) {
      // Already-issued and already-pooled challenges never enter the pool;
      // skipping them here (instead of at drain time) keeps the drain's
      // replay count a pure reuse / crash-recovery signal. With short
      // challenges a refill can meet a row that is still undrained.
      if (ledger.contains(row) || !pooled.insert(row)) return false;
      next.words.insert(next.words.end(), row.begin(), row.end());
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
  store_.record_pool(chip_id, next);
  refills.add(1);
  static Gauge& pool_size = MetricsRegistry::global().gauge("auth.pool_size");
  pool_size.set(static_cast<double>(store_.pool_entries_total()));
  return tried;
}

void ServerDatabase::fill_live(const ModelView& view, store::ChallengeSet& ledger,
                               ChallengeBatch& batch, Rng& rng) {
  XPUF_REQUIRE(batch.size() < config_.policy.challenge_count,
               "fill_live called with an already-full batch");
  const std::size_t need = config_.policy.challenge_count - batch.size();
  ChallengeScreener screener(view, config_.n_pufs);
  const StreamFamily family(rng.fork_base());
  const ChallengeScreener::Sink sink = [&](std::span<const std::uint64_t> row, bool bit) {
    if (!ledger.insert(row)) {
      // Replay-guarded: this stable challenge was issued to the device
      // before (e.g. a reused issuance seed); count the rejection — it is
      // the chosen-challenge-attack signal the server must observe.
      ++batch.replay_rejected;
      return false;
    }
    batch.push_back(row, bit);
    return true;
  };
  const ChallengeScreener::Outcome outcome = screener.screen(
      family, 0, need, config_.policy.max_selection_attempts, sink);
  batch.candidates_tried += outcome.tried;
  record_screening(outcome.tried, outcome.accepted);
  if (!outcome.filled)
    throw NumericalError("challenge issuance exhausted its attempt budget");
}

void ServerDatabase::finish_issue(std::size_t chip_id, const ChallengeBatch& batch) {
  XPUF_REQUIRE(batch.words.size() == batch.size() * sim::packed_words(batch.stages),
               "issued rows and expected bits must align");
  auto& registry = MetricsRegistry::global();
  static Counter& replay = registry.counter("auth.replay_rejected");
  static Counter& issued = registry.counter("db.challenges_issued");
  replay.add(batch.replay_rejected);
  issued.add(batch.size());
  // Durable acknowledgement: the challenges exist on disk before the caller
  // can send them anywhere (the store refreshes the ledger gauges).
  store_.record_issued(chip_id, static_cast<std::uint32_t>(batch.stages), batch.words);
}

ChallengeBatch ServerDatabase::issue_live(std::size_t chip_id, Rng& rng) {
  XPUF_TRACE_SPAN("db.issue_live");
  XPUF_REQUIRE(config_.policy.challenge_count > 0, "an authentication batch cannot be empty");
  const ModelView view = store_.model_view(chip_id);
  ChallengeBatch batch;
  batch.stages = view.stages();
  fill_live(view, store_.ledger(chip_id), batch, rng);
  finish_issue(chip_id, batch);
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
  store::ChallengeSet& ledger = store_.ledger(chip_id);
  ChallengeBatch batch;
  batch.stages = ledger.stages();
  batch.words.reserve(config_.policy.challenge_count * ledger.stride());
  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> expected;
  bool pool_ok = true;
  std::size_t dry_refills = 0;
  while (batch.size() < config_.policy.challenge_count) {
    store::PoolSlot slot;
    if (!store_.pool_slot(chip_id, slot) || slot.head >= slot.count) {
      // Empty (or absent: a fleet enrolled before pooling was turned on):
      // refill in place. Two consecutive refills without a drainable entry
      // mean screening is dry — bypass to live.
      if (dry_refills++ >= 2) {
        pool_ok = false;
        break;
      }
      batch.candidates_tried += refill_pool(chip_id, store_.model_view(chip_id), ledger);
      continue;
    }
    dry_refills = 0;
    const auto need =
        static_cast<std::uint32_t>(config_.policy.challenge_count - batch.size());
    const std::uint32_t take = std::min(slot.count - slot.head, need);
    words.clear();
    expected.clear();
    store_.read_pool_slice(chip_id, slot.head, take, words, expected);
    for (std::uint32_t i = 0; i < take; ++i) {
      const std::span<const std::uint64_t> row(words.data() + i * ledger.stride(),
                                               ledger.stride());
      if (!ledger.insert(row)) {
        // Only a crash-recovery re-drain reaches here: replay reset the
        // drain head, and the durable ledger screens out what was already
        // sent. Counted — it is still an issued-challenge-reuse signal.
        ++batch.replay_rejected;
        continue;
      }
      batch.push_back(row, expected[i] != 0);
    }
    store_.set_pool_head(chip_id, slot.head + take);
  }
  if (pool_ok) {
    pool_hits.add(1);
  } else {
    pool_misses.add(1);
    fill_live(store_.model_view(chip_id), ledger, batch, rng);
  }
  // Low-water top-up after serving, so the next issue is a pure drain.
  if (pool_ok && pool_remaining(chip_id) < config_.pool.low_water)
    batch.candidates_tried += refill_pool(chip_id, store_.model_view(chip_id), ledger);
  pool_size.set(static_cast<double>(store_.pool_entries_total()));
  finish_issue(chip_id, batch);
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
  out.outcome = verify(chip.id(), batch, device_responses(chip, env, batch, rng));
  return out;
}

void ServerDatabase::save(const std::string& directory) {
  XPUF_TRACE_SPAN("db.save");
  // Every op is already durable record by record; save() is the compaction
  // point, and it only makes sense in the store's own home.
  XPUF_REQUIRE(directory == store_.dir(), "a database saves in place (compaction)");
  store_.compact();
  static Gauge& devices = MetricsRegistry::global().gauge("db.devices");
  devices.set(static_cast<double>(store_.device_count()));
}

}  // namespace xpuf::puf
