// Tests for the crash-safe enrollment store: the binary record codec, the
// sharded append-only log, recovery semantics (torn tails vs corruption),
// the LRU model cache and its metrics, compaction, and the one-device model
// directory that carries a server model between processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/byte_codec.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "oracle/packed_bytes_ref.hpp"
#include "puf/authentication.hpp"
#include "puf/database.hpp"
#include "puf/store/record.hpp"
#include "puf/store/store.hpp"
#include "sim/linear.hpp"
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
  const std::vector<std::uint64_t> rows = {0x0201, 0x00ff, 0x0810};  // 12 stages
  const std::vector<std::uint8_t> payload = encode_ledger(12, rows);  // row = 2 bytes
  // u32 count, u32 stages, then each row's two little-endian bytes.
  EXPECT_EQ(payload, (std::vector<std::uint8_t>{3, 0, 0, 0, 12, 0, 0, 0, 0x01, 0x02, 0xff,
                                                0x00, 0x10, 0x08}));
  ChallengeSet out(12);
  std::uint64_t inserted = 0;
  ASSERT_EQ(decode_ledger(payload.data(), static_cast<std::uint32_t>(payload.size()), out,
                          inserted),
            RecordStatus::kOk);
  EXPECT_EQ(inserted, 3u);
  EXPECT_EQ(out.sorted_rows(), (std::vector<std::uint64_t>{0x0201, 0x0810, 0x00ff}));
  // A set of another geometry is not a valid destination.
  ChallengeSet wrong(13);
  EXPECT_EQ(decode_ledger(payload.data(), static_cast<std::uint32_t>(payload.size()), wrong,
                          inserted),
            RecordStatus::kBadPayload);
  EXPECT_EQ(wrong.size(), 0u);
}

TEST(StoreCodec, PackedChallengeRoundTripsEveryWidth) {
  for (std::size_t bits : {1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    Challenge c(bits);
    for (std::size_t i = 0; i < bits; ++i) c[i] = static_cast<std::uint8_t>((i * 7 + 3) % 2);
    std::vector<std::uint64_t> row(sim::packed_words(bits));
    sim::pack_challenge_into(c, row);
    // On disk: ceil(bits / 8) bytes, bit i of byte i / 8 = challenge bit i.
    const std::vector<std::uint8_t> payload =
        encode_ledger(static_cast<std::uint32_t>(bits), row);
    ASSERT_EQ(payload.size(), 8 + (bits + 7) / 8);
    for (std::size_t i = 0; i < bits; ++i)
      EXPECT_EQ((payload[8 + i / 8] >> (i % 8)) & 1u, c[i]) << bits << " bits, bit " << i;
    ChallengeSet set(bits);
    std::uint64_t inserted = 0;
    ASSERT_EQ(decode_ledger(payload.data(), static_cast<std::uint32_t>(payload.size()), set,
                            inserted),
              RecordStatus::kOk);
    ASSERT_EQ(set.sorted_rows(), row);
    Challenge back;
    sim::unpack_challenge_into(row, bits, back);
    EXPECT_EQ(back, c) << bits << " bits";
  }
}

// A row with a bit set above `stages` would be a second byte form of a
// challenge that already has one, i.e. a second ledger key for it: ISSUE
// and POOL decoders reject it.
TEST(StoreCodec, PayloadRowsWithPaddingBitsAreRejected) {
  for (const std::uint32_t stages : {1u, 12u, 63u, 100u}) {
    SCOPED_TRACE("stages " + std::to_string(stages));
    const std::size_t row_bytes = (stages + 7) / 8;
    const std::uint8_t pad_bit = static_cast<std::uint8_t>(1u << (stages % 8));
    // ISSUE: u32 count = 2, u32 stages, the rows of challenges 0 and 1.
    std::vector<std::uint8_t> issue = {2, 0, 0, 0};
    for (int b = 0; b < 4; ++b) issue.push_back(static_cast<std::uint8_t>(stages >> (8 * b)));
    for (std::uint8_t r = 0; r < 2; ++r)
      for (std::size_t b = 0; b < row_bytes; ++b) issue.push_back(b == 0 ? r : 0);
    // POOL: u32 count = 1, u32 stages, u32 epoch, u32 reserved, u64 cursor,
    // one expected-bit byte, one row.
    std::vector<std::uint8_t> pool = {1, 0, 0, 0};
    for (int b = 0; b < 4; ++b) pool.push_back(static_cast<std::uint8_t>(stages >> (8 * b)));
    for (int b = 0; b < 16; ++b) pool.push_back(b == 0 ? 3 : 0);  // epoch 3, cursor 0
    pool.push_back(1);
    for (std::size_t b = 0; b < row_bytes; ++b) pool.push_back(b == 0 ? 1 : 0);

    ChallengeSet set(stages);
    std::uint64_t inserted = 0;
    PoolView decoded;
    ASSERT_EQ(decode_ledger(issue.data(), static_cast<std::uint32_t>(issue.size()), set,
                            inserted),
              RecordStatus::kOk);
    EXPECT_EQ(inserted, 2u);
    ASSERT_EQ(decode_pool(pool.data(), static_cast<std::uint32_t>(pool.size()), decoded),
              RecordStatus::kOk);
    std::vector<std::uint64_t> words;
    std::vector<std::uint8_t> expected;
    decoded.read(0, 1, words, expected);
    std::vector<std::uint64_t> want(sim::packed_words(stages), 0);
    want[0] = 1;
    EXPECT_EQ(words, want);
    EXPECT_EQ(expected, std::vector<std::uint8_t>{1});
    EXPECT_EQ(decoded.epoch, 3u);
    if (stages % 8 == 0) continue;  // a whole last byte has no padding bit
    issue.back() |= pad_bit;  // the second row's last byte
    pool.back() |= pad_bit;
    ChallengeSet untouched(stages);
    EXPECT_EQ(decode_ledger(issue.data(), static_cast<std::uint32_t>(issue.size()), untouched,
                            inserted),
              RecordStatus::kBadPayload);
    EXPECT_EQ(untouched.size(), 0u) << "a rejected payload must insert nothing";
    EXPECT_EQ(decode_pool(pool.data(), static_cast<std::uint32_t>(pool.size()), decoded),
              RecordStatus::kBadPayload);
  }
}

/// `count` random packed `stages`-bit rows, every bit above `stages` zero.
std::vector<std::uint64_t> random_rows(std::uint32_t stages, std::uint32_t count, Rng& rng) {
  const std::size_t stride = sim::packed_words(stages);
  const std::size_t top = stages - (stride - 1) * 64;
  std::vector<std::uint64_t> rows(count * stride);
  for (std::size_t at = 0; at < rows.size(); at += stride) {
    for (std::size_t w = 0; w < stride; ++w) rows[at + w] = rng.next_u64();
    if (top < 64) rows[at + stride - 1] &= (1ULL << top) - 1;
  }
  return rows;
}

// The word-at-a-time row codec against the per-byte oracle
// (tests/oracle/packed_bytes_ref.hpp) at widths on both sides of a byte and
// a word boundary: ISSUE and POOL payloads byte-identical to the oracle's
// rows behind their documented headers, each round-tripping through its
// decoder, and a bit above `stages` still rejected.
TEST(StoreCodec, PackedRowsMatchTheBytewiseOracleAtEveryWidth) {
  for (const std::uint32_t stages : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 63u, 64u, 65u, 100u, 128u}) {
    SCOPED_TRACE("stages " + std::to_string(stages));
    const std::size_t stride = sim::packed_words(stages);
    const std::uint32_t count = 11;
    Rng rng(stages);
    const std::vector<std::uint64_t> rows = random_rows(stages, count, rng);
    std::vector<std::uint8_t> row_bytes;
    for (std::size_t at = 0; at < rows.size(); at += stride)
      oracle::append_packed_bytes_ref({rows.data() + at, stride}, stages, row_bytes);
    std::vector<std::uint64_t> read_back(rows.size());
    ASSERT_TRUE(sim::read_packed_bytes(row_bytes.data(), stages, read_back));
    EXPECT_EQ(read_back, rows);

    // ISSUE: u32 count, u32 stages, the rows.
    std::vector<std::uint8_t> issue;
    put_u32(issue, count);
    put_u32(issue, stages);
    issue.insert(issue.end(), row_bytes.begin(), row_bytes.end());
    ASSERT_EQ(encode_ledger(stages, rows), issue);
    ChallengeSet set(stages);
    std::uint64_t inserted = 0;
    ASSERT_EQ(decode_ledger(issue.data(), static_cast<std::uint32_t>(issue.size()), set,
                            inserted),
              RecordStatus::kOk);
    std::set<std::vector<std::uint64_t>> distinct;
    for (std::size_t at = 0; at < rows.size(); at += stride) {
      const std::span<const std::uint64_t> row(rows.data() + at, stride);
      distinct.emplace(row.begin(), row.end());
      EXPECT_TRUE(set.contains(row));
    }
    EXPECT_EQ(inserted, distinct.size());
    EXPECT_EQ(set.size(), distinct.size());

    // POOL: u32 count, u32 stages, u32 epoch, u32 reserved, u64 cursor, the
    // expected-bit bytes, the rows.
    PoolPayload pool;
    pool.stages = stages;
    pool.epoch = 7;
    pool.cursor = 0x0123456789abcdefULL;
    pool.words = rows;
    for (std::uint32_t i = 0; i < count; ++i)
      pool.expected.push_back(static_cast<std::uint8_t>(rng.next_u64() & 1u));
    std::vector<std::uint8_t> pool_bytes;
    put_u32(pool_bytes, count);
    put_u32(pool_bytes, stages);
    put_u32(pool_bytes, pool.epoch);
    put_u32(pool_bytes, 0);
    put_u64(pool_bytes, pool.cursor);
    for (std::uint32_t base = 0; base < count; base += 8) {
      std::uint8_t byte = 0;
      for (std::uint32_t b = 0; b < 8 && base + b < count; ++b)
        byte = static_cast<std::uint8_t>(byte | pool.expected[base + b] << b);
      pool_bytes.push_back(byte);
    }
    pool_bytes.insert(pool_bytes.end(), row_bytes.begin(), row_bytes.end());
    ASSERT_EQ(encode_pool(pool), pool_bytes);
    PoolView view;
    ASSERT_EQ(decode_pool(pool_bytes.data(), static_cast<std::uint32_t>(pool_bytes.size()), view),
              RecordStatus::kOk);
    std::vector<std::uint64_t> words;
    std::vector<std::uint8_t> expected;
    view.read(0, count, words, expected);
    EXPECT_EQ(words, rows);
    EXPECT_EQ(expected, pool.expected);
    // A slice appends entries 3..7 after what the vectors already hold.
    view.read(3, 5, words, expected);
    ASSERT_EQ(words.size(), rows.size() + 5 * stride);
    EXPECT_TRUE(std::equal(words.begin() + static_cast<std::ptrdiff_t>(rows.size()), words.end(),
                           rows.begin() + static_cast<std::ptrdiff_t>(3 * stride)));
    EXPECT_TRUE(std::equal(expected.begin() + count, expected.end(), pool.expected.begin() + 3));

    if (stages % 8 == 0) continue;  // a whole last byte has no padding bit
    const std::uint8_t pad_bit = static_cast<std::uint8_t>(1u << (stages % 8));
    row_bytes.back() |= pad_bit;  // the last row's last byte
    issue.back() |= pad_bit;
    pool_bytes.back() |= pad_bit;
    std::vector<std::uint64_t> last(stride);
    EXPECT_FALSE(oracle::read_packed_bytes_ref(
        row_bytes.data() + (count - 1) * sim::packed_bytes(stages), stages, last));
    EXPECT_FALSE(sim::read_packed_bytes(row_bytes.data(), stages, read_back));
    ChallengeSet untouched(stages);
    EXPECT_EQ(decode_ledger(issue.data(), static_cast<std::uint32_t>(issue.size()), untouched,
                            inserted),
              RecordStatus::kBadPayload);
    EXPECT_EQ(untouched.size(), 0u);
    EXPECT_EQ(decode_pool(pool_bytes.data(), static_cast<std::uint32_t>(pool_bytes.size()), view),
              RecordStatus::kBadPayload);
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

// --- replay ledger set --------------------------------------------------------

TEST(ChallengeSetTest, EmptySetAllocatesNothing) {
  const ChallengeSet set(64);
  EXPECT_EQ(set.heap_bytes(), 0u);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(std::vector<std::uint64_t>{0}));
}

// Membership against a std::set oracle through many growths, and the
// compaction order against the byte-string order a std::set<std::string>
// of the on-disk rows iterates in.
TEST(ChallengeSetTest, MatchesOracleAndOrdersRowsByTheirOnDiskBytes) {
  for (const std::size_t stages : {1u, 8u, 13u, 64u, 65u, 100u}) {
    SCOPED_TRACE("stages " + std::to_string(stages));
    const std::size_t stride = sim::packed_words(stages);
    ChallengeSet set(stages);
    std::set<std::vector<std::uint64_t>> oracle;
    std::set<std::string> bytes_order;
    Rng rng(stages);
    std::vector<std::uint64_t> row(stride);
    for (int i = 0; i < 3000; ++i) {
      // Few distinct values per word, so duplicates are frequent.
      for (std::uint64_t& w : row) w = rng.uniform_below(64) * 0x0101010101010101ULL;
      const std::size_t tail = stages - (stride - 1) * 64;
      if (tail < 64) row.back() &= (1ULL << tail) - 1;
      const bool fresh = oracle.insert(row).second;
      ASSERT_EQ(set.contains(row), !fresh);
      ASSERT_EQ(set.insert(row), fresh);
      ASSERT_TRUE(set.contains(row));
      if (fresh) {
        std::vector<std::uint8_t> disk;
        sim::append_packed_bytes(row, stages, disk);
        bytes_order.emplace(disk.begin(), disk.end());
      }
    }
    ASSERT_EQ(set.size(), oracle.size());
    const std::vector<std::uint64_t> sorted = set.sorted_rows();
    ASSERT_EQ(sorted.size(), oracle.size() * stride);
    std::size_t at = 0;
    for (const std::string& disk : bytes_order) {
      std::vector<std::uint8_t> got;
      sim::append_packed_bytes({sorted.data() + at, stride}, stages, got);
      EXPECT_EQ(std::string(got.begin(), got.end()), disk);
      at += stride;
    }
    ChallengeSet reordered(stages);
    for (std::size_t r = sorted.size(); r > 0; r -= stride)
      reordered.insert({sorted.data() + r - stride, stride});
    EXPECT_EQ(reordered.sorted_rows(), sorted);
  }
}

// A refill sizes its dedupe set for the pool target up front: up to the
// reserved count, inserts never move the slot arrays.
TEST(ChallengeSetTest, ReservedSetNeverRehashesUpToItsSize) {
  for (const std::size_t n : {1u, 14u, 15u, 1000u}) {
    ChallengeSet set(64);
    set.reserve(n);
    const std::size_t reserved = set.heap_bytes();
    EXPECT_GT(reserved, 0u);
    for (std::uint64_t k = 0; k < n; ++k) {
      ASSERT_TRUE(set.insert(std::vector<std::uint64_t>{k * 0x9e3779b97f4a7c15ULL}));
      ASSERT_EQ(set.heap_bytes(), reserved) << "n " << n << ", key " << k;
    }
    set.reserve(n / 2);  // never shrinks
    EXPECT_EQ(set.heap_bytes(), reserved);
    EXPECT_EQ(set.size(), n);
  }
}

TEST(ChallengeSetTest, RejectsNonCanonicalAndMisSizedKeys) {
  ChallengeSet set(13);
  EXPECT_THROW(set.insert(std::vector<std::uint64_t>{1ULL << 13}), std::invalid_argument);
  EXPECT_THROW(set.insert(std::vector<std::uint64_t>{1, 0}), std::invalid_argument);
  EXPECT_THROW((void)set.contains(std::vector<std::uint64_t>{1ULL << 63}),
               std::invalid_argument);
  EXPECT_TRUE(set.insert(std::vector<std::uint64_t>{(1ULL << 13) - 1}));
}

// Between growths the set holds 9 bytes per slot at a load of 7/16 .. 7/8.
TEST(ChallengeSetTest, HoldsAtMostTwentyOneBytesPerEightByteKey) {
  ChallengeSet set(64);
  std::vector<std::uint64_t> key(1);
  for (std::uint64_t i = 1; i <= 100'000; ++i) {
    key[0] = i * 0x9e3779b97f4a7c15ULL;
    ASSERT_TRUE(set.insert(key));
    if (i >= 64) {
      ASSERT_LE(set.heap_bytes(), 21 * i) << i << " keys";
    }
  }
}

// --- store lifecycle --------------------------------------------------------

TEST_F(StoreDirTest, RegisterServeRevokeSurviveReopen) {
  StoreOptions opts;
  opts.n_shards = 4;
  {
    EnrollmentStore store = EnrollmentStore::open(dir_, opts);
    for (std::uint64_t id : {0u, 1u, 2u, 5u, 9u}) store.register_device(make_model(id, 2, 8));
    EXPECT_EQ(store.device_count(), 5u);
    const std::vector<std::uint64_t> key = {0x55};  // challenge 1,0,1,0,1,0,1,0
    store.ledger(5).insert(key);
    store.record_issued(5, 8, key);
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
    std::vector<std::uint64_t> fresh;  // 8 stages: one word per key
    for (std::uint64_t i = 0; i < 4; ++i) fresh.push_back(i + id);
    for (const std::uint64_t key : fresh) store.ledger(id).insert({&key, 1});
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
    EXPECT_EQ(reopened.ledger(id).sorted_rows(), store.ledger(id).sorted_rows());
  }
}

TEST_F(StoreDirTest, PerShardLedgerTotalsSumToTheFleetGauge) {
  auto& registry = MetricsRegistry::global();
  StoreOptions opts;
  opts.n_shards = 2;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  for (std::uint64_t id = 0; id < 4; ++id) store.register_device(make_model(id, 1, 8));
  for (std::uint64_t id = 0; id < 4; ++id) {
    std::vector<std::uint64_t> fresh;  // 8 stages: one word per key
    for (std::uint64_t i = 0; i <= id; ++i) fresh.push_back(i);
    for (const std::uint64_t key : fresh) store.ledger(id).insert({&key, 1});
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
  std::map<std::uint64_t, std::vector<std::uint64_t>> ledgers;  ///< known id -> sorted keys
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
    for (const std::uint64_t id : store.device_ids())
      s.ledgers[id] = store.ledger(id).sorted_rows();
    history.push_back(std::move(s));
  };
  const auto issue = [](EnrollmentStore& store, std::uint64_t id,
                        std::initializer_list<std::uint8_t> seeds) {
    std::vector<std::uint64_t> fresh;  // 8 stages: the seed byte is the key
    for (std::uint8_t seed : seeds) fresh.push_back(seed);
    for (const std::uint64_t key : fresh) store.ledger(id).insert({&key, 1});
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

    std::map<std::uint64_t, std::vector<std::uint64_t>> got;
    for (const std::uint64_t id : recovered.device_ids())
      got[id] = recovered.ledger(id).sorted_rows();
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
