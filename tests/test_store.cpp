// Tests for the crash-safe enrollment store: the binary record codec, the
// sharded append-only log, recovery semantics (torn tails vs corruption),
// the LRU model cache and its metrics, compaction, and the one-device model
// directory that carries a server model between processes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "puf/authentication.hpp"
#include "puf/database.hpp"
#include "puf/store/record.hpp"
#include "puf/store/store.hpp"
#include "sim/population.hpp"

namespace xpuf::puf::store {
namespace {

namespace fs = std::filesystem;

/// Deterministic hand-built model: weights/thresholds derived from the id so
/// every device is distinguishable and bit-exactness is checkable.
ServerModel make_model(std::uint64_t id, std::size_t puf_count, std::size_t stages) {
  std::vector<PufEnrollment> pufs;
  for (std::size_t p = 0; p < puf_count; ++p) {
    PufEnrollment e;
    linalg::Vector w(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i)
      w[i] = 0.25 * static_cast<double>(i + p + 1) + 1e-9 * static_cast<double>(id);
    e.model = ArbiterPufModel(std::move(w));
    e.thresholds.thr0 = 0.4 - 0.001 * static_cast<double>(p);
    e.thresholds.thr1 = 0.6 + 0.001 * static_cast<double>(p);
    e.train_r_squared = 0.99 - 0.01 * static_cast<double>(p);
    e.fit_time_ms = static_cast<double>(id % 97);
    pufs.push_back(std::move(e));
  }
  ServerModel m(static_cast<std::size_t>(id), std::move(pufs));
  m.set_betas(BetaFactors{0.85, 1.15});
  return m;
}

void expect_models_bit_exact(const ServerModel& a, const ServerModel& b) {
  ASSERT_EQ(a.chip_id(), b.chip_id());
  ASSERT_EQ(a.puf_count(), b.puf_count());
  ASSERT_EQ(a.stages(), b.stages());
  EXPECT_EQ(a.betas().beta0, b.betas().beta0);
  EXPECT_EQ(a.betas().beta1, b.betas().beta1);
  for (std::size_t p = 0; p < a.puf_count(); ++p) {
    EXPECT_EQ(a.puf(p).model.weights().raw(), b.puf(p).model.weights().raw());
    EXPECT_EQ(a.puf(p).thresholds.thr0, b.puf(p).thresholds.thr0);
    EXPECT_EQ(a.puf(p).thresholds.thr1, b.puf(p).thresholds.thr1);
    EXPECT_EQ(a.puf(p).train_r_squared, b.puf(p).train_r_squared);
    EXPECT_EQ(a.puf(p).fit_time_ms, b.puf(p).fit_time_ms);
  }
}

std::string unique_dir(const std::string& tag) {
  return (fs::temp_directory_path() / ("xpuf_store_" + tag + "_" +
                                       std::to_string(::getpid())))
      .string();
}

class StoreDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

// --- codec ------------------------------------------------------------------

// The table-sliced crc must equal the plain bitwise CRC-32 (IEEE, reflected)
// at every length, so stores written before it still verify.
TEST(StoreCodec, Crc32MatchesTheBitwiseDefinition) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t len = 0; len <= 67; ++len) {
    std::uint32_t reference = 0xFFFFFFFFu;
    for (const std::uint8_t b : bytes) {
      reference ^= b;
      for (int k = 0; k < 8; ++k)
        reference = (reference & 1u) ? (0xEDB88320u ^ (reference >> 1)) : (reference >> 1);
    }
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), reference ^ 0xFFFFFFFFu) << "length " << len;
    bytes.push_back(static_cast<std::uint8_t>(len * 37u + 11u));
  }
}

TEST(StoreCodec, RecordRoundTripsAllOps) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> buf;
  encode_record(buf, OpType::kRegister, 42, payload);
  encode_record(buf, OpType::kRevoke, 7, {});
  encode_record(buf, OpType::kIssue, 0xffff'ffff'ffff'fffful, payload);

  RecordView v;
  ASSERT_EQ(decode_record(buf.data(), buf.size(), 0, v), RecordStatus::kOk);
  EXPECT_EQ(v.op, OpType::kRegister);
  EXPECT_EQ(v.device_id, 42u);
  EXPECT_EQ(v.payload_len, payload.size());
  EXPECT_EQ(std::vector<std::uint8_t>(v.payload, v.payload + v.payload_len), payload);
  EXPECT_EQ(v.begin, 0u);

  ASSERT_EQ(decode_record(buf.data(), buf.size(), v.end, v), RecordStatus::kOk);
  EXPECT_EQ(v.op, OpType::kRevoke);
  EXPECT_EQ(v.device_id, 7u);
  EXPECT_EQ(v.payload_len, 0u);

  ASSERT_EQ(decode_record(buf.data(), buf.size(), v.end, v), RecordStatus::kOk);
  EXPECT_EQ(v.op, OpType::kIssue);
  EXPECT_EQ(v.device_id, 0xffff'ffff'ffff'fffful);
  EXPECT_EQ(v.end, buf.size());
}

TEST(StoreCodec, EveryPrefixOfARecordIsTruncatedNeverCorrupt) {
  std::vector<std::uint8_t> buf;
  encode_record(buf, OpType::kRegister, 99, {9, 8, 7});
  for (std::size_t len = 0; len < buf.size(); ++len) {
    RecordView v;
    EXPECT_EQ(decode_record(buf.data(), len, 0, v), RecordStatus::kTruncated)
        << "prefix of " << len << " bytes";
  }
  RecordView v;
  EXPECT_EQ(decode_record(buf.data(), buf.size(), 0, v), RecordStatus::kOk);
}

TEST(StoreCodec, EverySingleBitFlipIsDetected) {
  std::vector<std::uint8_t> clean;
  encode_record(clean, OpType::kIssue, 1234, {0xaa, 0xbb, 0xcc});
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> dirty = clean;
      dirty[byte] = static_cast<std::uint8_t>(dirty[byte] ^ (1u << bit));
      RecordView v;
      const RecordStatus status = decode_record(dirty.data(), dirty.size(), 0, v);
      EXPECT_NE(status, RecordStatus::kOk)
          << "bit flip at byte " << byte << " bit " << bit << " went unnoticed";
    }
  }
}

TEST(StoreCodec, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  std::vector<std::uint8_t> buf;
  encode_record(buf, OpType::kRevoke, 5, {});
  // Patch payload_len (offset 12) to kMaxRecordPayloadBytes + 1.
  const std::uint32_t huge = kMaxRecordPayloadBytes + 1;
  for (std::uint32_t b = 0; b < 4; ++b)
    buf[12 + b] = static_cast<std::uint8_t>((huge >> (8 * b)) & 0xffu);
  RecordView v;
  EXPECT_EQ(decode_record(buf.data(), buf.size(), 0, v), RecordStatus::kBadLength);
}

TEST(StoreCodec, ModelPayloadRoundTripsBitExactly) {
  const ServerModel original = make_model(31337, 3, 16);
  const std::vector<std::uint8_t> payload = encode_model(original);
  EXPECT_EQ(payload.size(), model_payload_bytes(3, 16));

  std::uint32_t puf_count = 0;
  std::uint32_t stages = 0;
  ASSERT_EQ(peek_model_shape(payload.data(), static_cast<std::uint32_t>(payload.size()),
                             puf_count, stages),
            RecordStatus::kOk);
  EXPECT_EQ(puf_count, 3u);
  EXPECT_EQ(stages, 16u);

  ServerModel decoded;
  ASSERT_EQ(decode_model(payload.data(), static_cast<std::uint32_t>(payload.size()),
                         31337, decoded),
            RecordStatus::kOk);
  expect_models_bit_exact(original, decoded);
}

TEST(StoreCodec, LedgerPayloadRoundTrips) {
  const std::vector<std::string> keys = {std::string("\x01\x02", 2),
                                         std::string("\xff\x00", 2),
                                         std::string("\x10\x20", 2)};
  const std::vector<std::uint8_t> payload = encode_ledger(12, keys);  // row = 2 bytes
  std::uint32_t stages = 0;
  std::vector<std::string> out;
  ASSERT_EQ(decode_ledger(payload.data(), static_cast<std::uint32_t>(payload.size()),
                          stages, out),
            RecordStatus::kOk);
  EXPECT_EQ(stages, 12u);
  EXPECT_EQ(out, keys);
}

TEST(StoreCodec, PackedChallengeRoundTripsEveryWidth) {
  for (std::size_t bits : {1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    Challenge c(bits);
    for (std::size_t i = 0; i < bits; ++i) c[i] = static_cast<std::uint8_t>((i * 7 + 3) % 2);
    const std::string key = pack_challenge(c);
    EXPECT_EQ(key.size(), (bits + 7) / 8);
    EXPECT_EQ(unpack_challenge(key, bits), c) << bits << " bits";
  }
}

TEST(StoreCodec, ManifestRoundTripsAndDetectsCorruption) {
  const std::vector<std::uint8_t> bytes = encode_manifest(16);
  EXPECT_EQ(bytes.size(), kManifestBytes);
  std::uint32_t n = 0;
  ASSERT_EQ(decode_manifest(bytes.data(), bytes.size(), n), RecordStatus::kOk);
  EXPECT_EQ(n, 16u);
  std::vector<std::uint8_t> dirty = bytes;
  dirty[4] ^= 1;  // shard count field
  EXPECT_EQ(decode_manifest(dirty.data(), dirty.size(), n), RecordStatus::kBadChecksum);
  EXPECT_EQ(decode_manifest(bytes.data(), bytes.size() - 1, n), RecordStatus::kTruncated);
}

// --- store lifecycle --------------------------------------------------------

TEST_F(StoreDirTest, RegisterServeRevokeSurviveReopen) {
  StoreOptions opts;
  opts.n_shards = 4;
  {
    EnrollmentStore store = EnrollmentStore::open(dir_, opts);
    for (std::uint64_t id : {0u, 1u, 2u, 5u, 9u}) store.register_device(make_model(id, 2, 8));
    EXPECT_EQ(store.device_count(), 5u);
    store.ledger(5).insert(pack_challenge(Challenge{1, 0, 1, 0, 1, 0, 1, 0}));
    store.record_issued(5, 8, {pack_challenge(Challenge{1, 0, 1, 0, 1, 0, 1, 0})});
    store.revoke_device(2);
  }
  EnrollmentStore reopened = EnrollmentStore::open(dir_, opts);
  EXPECT_EQ(reopened.device_count(), 4u);
  EXPECT_FALSE(reopened.knows(2)) << "revoked device resurrected by replay";
  EXPECT_EQ(reopened.ledger(5).size(), 1u);
  EXPECT_EQ(reopened.issued_total(), 1u);
  expect_models_bit_exact(make_model(9, 2, 8), *reopened.model(9));
}

TEST_F(StoreDirTest, ShardRoutingMatchesDeviceIdModulo) {
  StoreOptions opts;
  opts.n_shards = 4;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  for (std::uint64_t id = 0; id < 8; ++id) store.register_device(make_model(id, 1, 4));
  for (std::uint64_t id = 0; id < 8; ++id)
    EXPECT_EQ(store.device_record(id).shard, id % 4);
  // Shard files are disjoint: each holds exactly its two registers.
  for (std::uint32_t k = 0; k < 4; ++k) EXPECT_GT(store.shard_size(k), 0u);
}

TEST_F(StoreDirTest, LruCacheMetricsAccountExactly) {
  auto& registry = MetricsRegistry::global();
  Counter& hits = registry.counter("db.cache_hits");
  Counter& misses = registry.counter("db.cache_misses");
  Counter& evictions = registry.counter("db.cache_evictions");
  const std::uint64_t hits0 = hits.total();
  const std::uint64_t misses0 = misses.total();
  const std::uint64_t evictions0 = evictions.total();

  StoreOptions opts;
  opts.n_shards = 1;
  opts.cache_capacity = 2;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  store.register_device(make_model(0, 1, 8));  // cache {0}
  store.register_device(make_model(1, 1, 8));  // cache {1, 0}
  store.register_device(make_model(2, 1, 8));  // cache {2, 1}, evicts 0
  EXPECT_EQ(evictions.total() - evictions0, 1u);
  EXPECT_EQ(store.cache_size(), 2u);
  EXPECT_EQ(store.cache_capacity(), 2u);

  expect_models_bit_exact(make_model(0, 1, 8), *store.model(0));  // miss, evicts 1
  EXPECT_EQ(misses.total() - misses0, 1u);
  EXPECT_EQ(evictions.total() - evictions0, 2u);

  auto held = store.model(1);  // miss again (was just evicted), evicts 2
  EXPECT_EQ(misses.total() - misses0, 2u);
  EXPECT_EQ(evictions.total() - evictions0, 3u);

  EXPECT_EQ(store.model(1).get(), held.get());  // hit: same cached object
  EXPECT_EQ(hits.total() - hits0, 1u);
  EXPECT_EQ(misses.total() - misses0, 2u);

  // Accounting identity: every insertion either grew the cache or evicted.
  const std::uint64_t inserts = 3 /*registers*/ + (misses.total() - misses0);
  EXPECT_EQ(inserts, store.cache_size() + (evictions.total() - evictions0));

  // The eviction-survivor contract: a shared_ptr obtained before an eviction
  // keeps serving the old object.
  expect_models_bit_exact(make_model(1, 1, 8), *held);
}

TEST_F(StoreDirTest, DuplicateRegisterAndUnknownLookupsThrow) {
  StoreOptions opts;
  opts.n_shards = 2;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  store.register_device(make_model(3, 1, 4));
  EXPECT_THROW(store.register_device(make_model(3, 1, 4)), std::invalid_argument);
  EXPECT_THROW(store.model(99), std::invalid_argument);
  EXPECT_THROW(store.ledger(99), std::invalid_argument);
  EXPECT_THROW(store.revoke_device(99), std::invalid_argument);
  EXPECT_THROW(store.device_record(99), std::invalid_argument);
}

TEST_F(StoreDirTest, ReopenHonoursManifestShardCountOverOptions) {
  StoreOptions opts;
  opts.n_shards = 8;
  { EnrollmentStore store = EnrollmentStore::open(dir_, opts); }
  StoreOptions other;
  other.n_shards = 3;  // ignored: the manifest wins
  EnrollmentStore reopened = EnrollmentStore::open(dir_, other);
  EXPECT_EQ(reopened.n_shards(), 8u);
}

TEST_F(StoreDirTest, CorruptManifestIsAParseError) {
  { EnrollmentStore store = EnrollmentStore::open(dir_, StoreOptions{}); }
  {
    std::ofstream out(dir_ + "/store_manifest", std::ios::binary | std::ios::trunc);
    out << "not a manifest";
  }
  EXPECT_THROW(EnrollmentStore::open(dir_, StoreOptions{}), ParseError);
}

TEST_F(StoreDirTest, MidFileBitFlipFailsLoudlyOnReplay) {
  StoreOptions opts;
  opts.n_shards = 1;
  {
    EnrollmentStore store = EnrollmentStore::open(dir_, opts);
    store.register_device(make_model(0, 1, 8));
    store.register_device(make_model(1, 1, 8));
  }
  const std::string shard = dir_ + "/shard_0.log";
  std::fstream f(shard, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(20);  // inside the first record's payload, not the tail
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(20);
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW(EnrollmentStore::open(dir_, opts), ParseError)
      << "mid-file corruption must never be silently skipped";
}

TEST_F(StoreDirTest, CompactionDropsRevokedHistoryAndKeepsModelsBitExact) {
  StoreOptions opts;
  opts.n_shards = 2;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  for (std::uint64_t id = 0; id < 6; ++id) store.register_device(make_model(id, 2, 8));
  for (std::uint64_t id = 0; id < 6; ++id) {
    std::vector<std::string> fresh;
    for (std::uint8_t i = 0; i < 4; ++i)
      fresh.push_back(std::string(1, static_cast<char>(i + id)));
    for (const auto& key : fresh) store.ledger(id).insert(key);
    store.record_issued(id, 8, fresh);
  }
  store.revoke_device(4);
  store.revoke_device(5);
  const std::uint64_t before = store.shard_size(0) + store.shard_size(1);

  store.compact();
  const std::uint64_t after = store.shard_size(0) + store.shard_size(1);
  EXPECT_LT(after, before) << "compaction must reclaim revoked history";
  EXPECT_EQ(store.device_count(), 4u);
  EXPECT_EQ(store.issued_total(), 16u);

  // The store keeps serving post-compaction (offsets were rewritten) ...
  expect_models_bit_exact(make_model(3, 2, 8), *store.model(3));
  // ... and a fresh replay of the compacted log agrees completely.
  EnrollmentStore reopened = EnrollmentStore::open(dir_, opts);
  EXPECT_EQ(reopened.device_count(), 4u);
  EXPECT_EQ(reopened.issued_total(), 16u);
  EXPECT_FALSE(reopened.knows(4));
  EXPECT_FALSE(reopened.knows(5));
  for (std::uint64_t id = 0; id < 4; ++id) {
    expect_models_bit_exact(make_model(id, 2, 8), *reopened.model(id));
    EXPECT_EQ(reopened.ledger(id), store.ledger(id));
  }
}

TEST_F(StoreDirTest, PerShardLedgerTotalsSumToTheFleetGauge) {
  auto& registry = MetricsRegistry::global();
  StoreOptions opts;
  opts.n_shards = 2;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  for (std::uint64_t id = 0; id < 4; ++id) store.register_device(make_model(id, 1, 8));
  for (std::uint64_t id = 0; id < 4; ++id) {
    std::vector<std::string> fresh;
    for (std::uint8_t i = 0; i <= id; ++i)
      fresh.push_back(std::string(1, static_cast<char>(i)));
    for (const auto& key : fresh) store.ledger(id).insert(key);
    store.record_issued(id, 8, fresh);
  }
  // Devices 0,2 -> shard 0 (1 + 3 keys); devices 1,3 -> shard 1 (2 + 4 keys).
  EXPECT_EQ(store.shard_issued_total(0), 4u);
  EXPECT_EQ(store.shard_issued_total(1), 6u);
  EXPECT_EQ(store.issued_total(), 10u);
  // The gauges mirror the totals: fleet-wide plus one per shard. This is the
  // regression for the last-writer-wins db.ledger_size bug: the fleet gauge
  // holds the TOTAL, not whichever device issued last.
  EXPECT_EQ(registry.gauge("db.ledger_size").get(), 10.0);
  EXPECT_EQ(registry.gauge("db.shard_ledger_size.0").get(), 4.0);
  EXPECT_EQ(registry.gauge("db.shard_ledger_size.1").get(), 6.0);
}

// --- truncation torture -----------------------------------------------------

/// Expected store state after a prefix of the op history.
struct ExpectedState {
  std::uint64_t offset = 0;  ///< durable high-water mark after the op
  std::map<std::uint64_t, std::set<std::string>> ledgers;  ///< known id -> keys
};

// Cuts the single-shard log at EVERY byte offset and reopens the store. Each
// cut must recover exactly the records whose acknowledged end offset fits in
// the prefix — never resurrect a revoked device, never drop an acknowledged
// ledger entry, never misread a torn tail as corruption — and count the torn
// tail under db.log_truncated.
TEST_F(StoreDirTest, TruncationAtEveryByteRecoversTheExactAcknowledgedPrefix) {
  StoreOptions opts;
  opts.n_shards = 1;
  opts.cache_capacity = 4;

  std::vector<ExpectedState> history;
  const auto snapshot = [&history](const EnrollmentStore& store) {
    ExpectedState s;
    s.offset = store.shard_size(0);
    for (const std::uint64_t id : store.device_ids()) s.ledgers[id] = store.ledger(id);
    history.push_back(std::move(s));
  };
  const auto issue = [](EnrollmentStore& store, std::uint64_t id,
                        std::initializer_list<std::uint8_t> seeds) {
    std::vector<std::string> fresh;
    for (std::uint8_t seed : seeds) {
      Challenge c(8);
      for (std::size_t i = 0; i < 8; ++i)
        c[i] = static_cast<std::uint8_t>((seed >> i) & 1u);
      fresh.push_back(pack_challenge(c));
    }
    for (const auto& key : fresh) store.ledger(id).insert(key);
    store.record_issued(id, 8, fresh);
  };

  {
    EnrollmentStore store = EnrollmentStore::open(dir_, opts);
    history.push_back(ExpectedState{});  // empty log
    store.register_device(make_model(0, 2, 8));
    snapshot(store);
    store.register_device(make_model(1, 2, 8));
    snapshot(store);
    issue(store, 0, {3, 5, 9});
    snapshot(store);
    issue(store, 1, {7, 11});
    snapshot(store);
    store.revoke_device(1);
    snapshot(store);
    issue(store, 0, {13, 17});
    snapshot(store);
    store.register_device(make_model(2, 2, 8));
    snapshot(store);
  }

  // Full log bytes, read once.
  std::vector<char> log_bytes;
  {
    std::ifstream in(dir_ + "/shard_0.log", std::ios::binary);
    ASSERT_TRUE(in.good());
    log_bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(log_bytes.size(), history.back().offset);
  std::set<std::uint64_t> boundaries;
  for (const auto& s : history) boundaries.insert(s.offset);

  Counter& truncations = MetricsRegistry::global().counter("db.log_truncated");
  const std::string torn_dir = unique_dir("torn");
  for (std::uint64_t cut = 0; cut <= log_bytes.size(); ++cut) {
    fs::remove_all(torn_dir);
    fs::create_directories(torn_dir);
    fs::copy_file(dir_ + "/store_manifest", torn_dir + "/store_manifest");
    {
      std::ofstream out(torn_dir + "/shard_0.log", std::ios::binary);
      out.write(log_bytes.data(), static_cast<std::streamsize>(cut));
    }

    // The last acknowledged op whose append fits inside the cut.
    const ExpectedState* expected = &history.front();
    for (const auto& s : history)
      if (s.offset <= cut) expected = &s;

    const std::uint64_t truncations_before = truncations.total();
    EnrollmentStore recovered = EnrollmentStore::open(torn_dir, opts);

    std::map<std::uint64_t, std::set<std::string>> got;
    for (const std::uint64_t id : recovered.device_ids()) got[id] = recovered.ledger(id);
    EXPECT_EQ(got, expected->ledgers) << "cut at byte " << cut;
    EXPECT_EQ(recovered.shard_size(0), expected->offset)
        << "torn tail not trimmed back to the record boundary at cut " << cut;

    const bool torn = boundaries.count(cut) == 0;
    EXPECT_EQ(truncations.total() - truncations_before, torn ? 1u : 0u)
        << "db.log_truncated must count exactly the torn tails (cut " << cut << ")";

    // Models of surviving devices decode bit-exactly from the prefix.
    for (const auto& [id, keys] : expected->ledgers)
      expect_models_bit_exact(make_model(id, 2, 8), *recovered.model(id));
  }
  fs::remove_all(torn_dir);
}

// --- one-device model directory ---------------------------------------------
//
// A server model travels between processes (xpuf_cli enroll --out /
// authenticate --model) as a one-shard store holding one device, written
// through ServerDatabase::open + register_device and read back through
// EnrollmentStore::model — the record format the server serves from.

class ModelStoreTest : public StoreDirTest {
 protected:
  static constexpr std::size_t kPufs = 3;

  ModelStoreTest() : pop_(make_config()), rng_(606) {
    EnrollmentConfig cfg;
    cfg.training_challenges = 1'000;
    cfg.trials = 2'000;
    model_ = Enroller(cfg).enroll(pop_.chip(0), rng_);
    model_.set_betas(BetaFactors{0.83, 1.17});
  }

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 1;
    cfg.n_pufs_per_chip = kPufs;
    cfg.seed = 10101;
    return cfg;
  }

  static StoreOptions model_options() {
    StoreOptions opts;
    opts.n_shards = 1;
    return opts;
  }

  void save(const ServerModel& model) const {
    DatabaseConfig cfg;
    cfg.n_pufs = kPufs;
    ServerDatabase db = ServerDatabase::open(dir_, cfg, model_options());
    db.register_device(ServerModel(model));
  }

  ServerModel load(std::uint64_t id) const {
    const EnrollmentStore store = EnrollmentStore::open(dir_, model_options());
    return ServerModel(*store.model(id));
  }

  std::string shard_path() const { return dir_ + "/shard_0.log"; }

  sim::ChipPopulation pop_;
  Rng rng_;
  ServerModel model_;
};

TEST_F(ModelStoreTest, RoundTripIsBitExact) {
  save(model_);
  expect_models_bit_exact(model_, load(model_.chip_id()));
}

TEST_F(ModelStoreTest, LoadedModelAuthenticatesLikeTheOriginal) {
  save(model_);
  const ServerModel loaded = load(model_.chip_id());
  // Same RNG seed -> same issued batch -> same verdicts.
  AuthenticationServer s1(model_, kPufs, {.challenge_count = 16});
  AuthenticationServer s2(loaded, kPufs, {.challenge_count = 16});
  Rng r1(42), r2(42);
  const auto o1 = s1.authenticate(pop_.chip(0), sim::Environment::nominal(), r1);
  const auto o2 = s2.authenticate(pop_.chip(0), sim::Environment::nominal(), r2);
  EXPECT_EQ(o1.approved, o2.approved);
  EXPECT_EQ(o1.mismatches, o2.mismatches);
}

TEST_F(ModelStoreTest, PredictionsSurviveTheRoundTrip) {
  save(model_);
  const ServerModel loaded = load(model_.chip_id());
  Rng crng(7);
  for (int i = 0; i < 100; ++i) {
    const auto c = random_challenge(32, crng);
    for (std::size_t p = 0; p < kPufs; ++p) {
      EXPECT_DOUBLE_EQ(loaded.predict_soft(p, c), model_.predict_soft(p, c));
      EXPECT_EQ(loaded.classify(p, c), model_.classify(p, c));
    }
  }
}

TEST_F(ModelStoreTest, RejectsWrongFormat) {
  save(model_);
  {
    std::ofstream out(shard_path(), std::ios::binary | std::ios::trunc);
    out << "just,some,random,csv\n1,2,3,4\n";
  }
  EXPECT_THROW(EnrollmentStore::open(dir_, model_options()), ParseError);
}

// A cut-short log never yields a partial model: the torn REGISTER record is
// trimmed on open, so the device is simply absent.
TEST_F(ModelStoreTest, RejectsTruncatedFile) {
  save(model_);
  fs::resize_file(shard_path(), fs::file_size(shard_path()) - 8);
  const EnrollmentStore store = EnrollmentStore::open(dir_, model_options());
  EXPECT_FALSE(store.knows(model_.chip_id()));
  EXPECT_THROW(store.model(model_.chip_id()), std::invalid_argument);
}

TEST_F(ModelStoreTest, RejectsCorruptedNumbers) {
  save(model_);
  // Flip one bit in the middle of the record: inside the weight block.
  const auto size = static_cast<std::streamoff>(fs::file_size(shard_path()));
  std::fstream io(shard_path(), std::ios::in | std::ios::out | std::ios::binary);
  io.seekg(size / 2);
  const char byte = static_cast<char>(io.get());
  io.seekp(size / 2);
  io.put(static_cast<char>(byte ^ 0x10));
  io.close();
  EXPECT_THROW(EnrollmentStore::open(dir_, model_options()), ParseError);
}

TEST_F(ModelStoreTest, MissingFileThrows) {
  save(model_);
  fs::remove(shard_path());
  const EnrollmentStore store = EnrollmentStore::open(dir_, model_options());
  EXPECT_THROW(store.model(model_.chip_id()), std::invalid_argument);
}

// Regression: the retired CSV model format parsed integer header fields
// through parse_double, which silently rounds ids above 2^53 — two distinct
// devices could collapse onto one server record. The store carries the id as
// a fixed-width u64, and a register -> reopen round trip must keep it exact.
TEST_F(ModelStoreTest, HugeChipIdRoundTripsExactly) {
  // 2^53 + 1 is the first integer a double cannot represent; max() is the
  // worst case. Both must survive register -> reopen without collapsing.
  for (const std::size_t id :
       {(std::size_t{1} << 53) + 1, std::numeric_limits<std::size_t>::max()}) {
    fs::remove_all(dir_);
    std::vector<PufEnrollment> pufs;
    for (std::size_t p = 0; p < model_.puf_count(); ++p) pufs.push_back(model_.puf(p));
    ServerModel renamed(id, std::move(pufs));
    renamed.set_betas(model_.betas());
    save(renamed);
    const EnrollmentStore store = EnrollmentStore::open(dir_, model_options());
    EXPECT_EQ(store.device_ids(), std::vector<std::uint64_t>{id})
        << "chip id " << id << " did not survive the round trip";
    EXPECT_EQ(store.model(id)->chip_id(), id);
  }
}

}  // namespace
}  // namespace xpuf::puf::store
