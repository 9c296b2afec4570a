#include "puf/store/record.hpp"

#include <array>
#include <utility>

#include "common/error.hpp"
#include "linalg/vector.hpp"

namespace xpuf::puf::store {

bool is_known_op(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(OpType::kRegister) &&
         raw <= static_cast<std::uint8_t>(OpType::kPad);
}

const char* to_string(OpType op) {
  switch (op) {
    case OpType::kRegister: return "REGISTER";
    case OpType::kRevoke: return "REVOKE";
    case OpType::kIssue: return "ISSUE";
    case OpType::kPool: return "POOL";
    case OpType::kPad: return "PAD";
  }
  return "UNKNOWN";
}

const char* to_string(RecordStatus status) {
  switch (status) {
    case RecordStatus::kOk: return "ok";
    case RecordStatus::kTruncated: return "truncated record";
    case RecordStatus::kBadMagic: return "bad magic";
    case RecordStatus::kBadVersion: return "unsupported version";
    case RecordStatus::kBadOp: return "unknown op type";
    case RecordStatus::kBadLength: return "payload length out of range";
    case RecordStatus::kBadChecksum: return "checksum mismatch";
    case RecordStatus::kBadPayload: return "malformed payload";
  }
  return "unknown record status";
}

// --- crc32 ------------------------------------------------------------------

namespace {

/// Slicing-by-8 tables: table[0] is the classic byte table, table[s][i] the
/// crc of byte i followed by s zero bytes, so eight bytes fold per step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (std::uint32_t k = 0; k < 8; ++k)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s)
    for (std::size_t i = 0; i < 256; ++i)
      table[s][i] = (table[s - 1][i] >> 8) ^ table[0][table[s - 1][i] & 0xffu];
  return table;
}

/// Fixed byte footprint of a REGISTER payload's geometry + beta prefix:
/// u32 puf_count + u32 stages (the f64 betas follow but are not part of the
/// put_uN accounting).
constexpr std::uint32_t kModelFixedBytes = 8;
/// Fixed byte footprint of an ISSUE payload prefix: u32 count + u32 stages.
constexpr std::uint32_t kLedgerFixedBytes = 8;

std::uint64_t row_bytes_for(std::uint64_t stages) { return (stages + 7) / 8; }

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::uint64_t size) {
  // Every pool drain crc-checks a whole POOL record, so this runs on the
  // serve path: eight independent lookups per step instead of a byte chain.
  static const CrcTables table = make_crc_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  std::uint64_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(data[i]) |
                                    static_cast<std::uint32_t>(data[i + 1]) << 8 |
                                    static_cast<std::uint32_t>(data[i + 2]) << 16 |
                                    static_cast<std::uint32_t>(data[i + 3]) << 24);
    crc = table[7][lo & 0xffu] ^ table[6][(lo >> 8) & 0xffu] ^
          table[5][(lo >> 16) & 0xffu] ^ table[4][lo >> 24] ^ table[3][data[i + 4]] ^
          table[2][data[i + 5]] ^ table[1][data[i + 6]] ^ table[0][data[i + 7]];
  }
  for (; i < size; ++i) crc = table[0][(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// --- record framing ---------------------------------------------------------

void encode_record(std::vector<std::uint8_t>& out, OpType op, std::uint64_t device_id,
                   const std::vector<std::uint8_t>& payload) {
  XPUF_REQUIRE(payload.size() <= kMaxRecordPayloadBytes,
               "encode_record: payload exceeds kMaxRecordPayloadBytes");
  out.reserve(out.size() + kRecordHeaderBytes + payload.size() + kRecordTrailerBytes);
  const std::size_t begin = out.size();
  put_u16(out, kRecordMagic);
  put_u8(out, kStoreVersion);
  put_u8(out, static_cast<std::uint8_t>(op));
  put_u64(out, device_id);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(out, crc32(out.data() + begin, out.size() - begin));
}

RecordStatus decode_record(const std::uint8_t* data, std::uint64_t size,
                           std::uint64_t offset, RecordView& out) {
  if (offset > size) return RecordStatus::kTruncated;
  RecordReader reader(data + offset, size - offset);
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t op = 0;
  std::uint64_t device_id = 0;
  std::uint32_t payload_len = 0;
  if (!reader.read_u16(magic)) return RecordStatus::kTruncated;
  if (magic != kRecordMagic) return RecordStatus::kBadMagic;
  if (!reader.read_u8(version)) return RecordStatus::kTruncated;
  if (version != kStoreVersion) return RecordStatus::kBadVersion;
  if (!reader.read_u8(op)) return RecordStatus::kTruncated;
  if (!is_known_op(op)) return RecordStatus::kBadOp;
  if (!reader.read_u64(device_id)) return RecordStatus::kTruncated;
  if (!reader.read_u32(payload_len)) return RecordStatus::kTruncated;
  if (payload_len > kMaxRecordPayloadBytes) return RecordStatus::kBadLength;
  if (!reader.skip(payload_len)) return RecordStatus::kTruncated;
  std::uint32_t stored_crc = 0;
  if (!reader.read_u32(stored_crc)) return RecordStatus::kTruncated;
  const std::uint64_t body_bytes = kRecordHeaderBytes + payload_len;
  if (crc32(data + offset, body_bytes) != stored_crc) return RecordStatus::kBadChecksum;
  out.op = static_cast<OpType>(op);
  out.device_id = device_id;
  out.payload = data + offset + kRecordHeaderBytes;
  out.payload_len = payload_len;
  out.begin = offset;
  out.end = offset + body_bytes + kRecordTrailerBytes;
  return RecordStatus::kOk;
}

// --- model payload -----------------------------------------------------------

std::vector<std::uint8_t> encode_model(const ServerModel& model) {
  const std::size_t puf_count = model.puf_count();
  const std::size_t stages = model.stages();
  const std::size_t per_puf = (4 + stages + 1) * sizeof(double);
  std::vector<std::uint8_t> out;
  out.reserve(kModelFixedBytes + 2 * sizeof(double) + puf_count * per_puf);
  put_u32(out, static_cast<std::uint32_t>(puf_count));
  put_u32(out, static_cast<std::uint32_t>(stages));
  put_f64(out, model.betas().beta0);
  put_f64(out, model.betas().beta1);
  for (std::size_t p = 0; p < puf_count; ++p) {
    const PufEnrollment& e = model.puf(p);
    put_f64(out, e.thresholds.thr0);
    put_f64(out, e.thresholds.thr1);
    put_f64(out, e.train_r_squared);
    put_f64(out, e.fit_time_ms);
    const linalg::Vector& w = e.model.weights();
    for (std::size_t i = 0; i < w.size(); ++i) put_f64(out, w[i]);
  }
  return out;
}

RecordStatus decode_model(const std::uint8_t* payload, std::uint32_t len,
                          std::uint64_t device_id, ServerModel& out) {
  RecordReader reader(payload, len);
  std::uint32_t puf_count = 0;
  std::uint32_t stages = 0;
  if (!reader.read_u32(puf_count)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(stages)) return RecordStatus::kBadPayload;
  if (puf_count == 0 || puf_count > kMaxPufsPerModel) return RecordStatus::kBadPayload;
  if (stages == 0 || stages > kMaxStagesPerModel) return RecordStatus::kBadPayload;
  if (len != model_payload_bytes(puf_count, stages)) return RecordStatus::kBadPayload;
  BetaFactors betas;
  if (!reader.read_f64(betas.beta0)) return RecordStatus::kBadPayload;
  if (!reader.read_f64(betas.beta1)) return RecordStatus::kBadPayload;
  std::vector<PufEnrollment> pufs;
  pufs.reserve(puf_count);
  for (std::uint32_t p = 0; p < puf_count; ++p) {
    PufEnrollment e;
    if (!reader.read_f64(e.thresholds.thr0)) return RecordStatus::kBadPayload;
    if (!reader.read_f64(e.thresholds.thr1)) return RecordStatus::kBadPayload;
    if (!reader.read_f64(e.train_r_squared)) return RecordStatus::kBadPayload;
    if (!reader.read_f64(e.fit_time_ms)) return RecordStatus::kBadPayload;
    std::vector<double> weights(stages + 1);
    for (double& w : weights)
      if (!reader.read_f64(w)) return RecordStatus::kBadPayload;
    e.model = ArbiterPufModel(linalg::Vector(std::move(weights)));
    pufs.push_back(std::move(e));
  }
  out = ServerModel(static_cast<std::size_t>(device_id), std::move(pufs));
  out.set_betas(betas);
  return RecordStatus::kOk;
}

std::uint64_t model_payload_bytes(std::uint32_t puf_count, std::uint32_t stages) {
  const std::uint64_t per_puf = (4 + static_cast<std::uint64_t>(stages) + 1) * sizeof(double);
  return kModelFixedBytes + 2 * sizeof(double) + static_cast<std::uint64_t>(puf_count) * per_puf;
}

RecordStatus peek_model_shape(const std::uint8_t* payload, std::uint32_t len,
                              std::uint32_t& puf_count, std::uint32_t& stages) {
  RecordReader reader(payload, len);
  if (!reader.read_u32(puf_count)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(stages)) return RecordStatus::kBadPayload;
  if (puf_count == 0 || puf_count > kMaxPufsPerModel) return RecordStatus::kBadPayload;
  if (stages == 0 || stages > kMaxStagesPerModel) return RecordStatus::kBadPayload;
  return RecordStatus::kOk;
}

// --- ledger payload ----------------------------------------------------------

std::vector<std::uint8_t> encode_ledger(std::uint32_t stages,
                                        const std::vector<std::string>& keys) {
  XPUF_REQUIRE(stages > 0, "encode_ledger: zero stages");
  const std::uint64_t row = row_bytes_for(stages);
  std::vector<std::uint8_t> out;
  out.reserve(kLedgerFixedBytes + keys.size() * row);
  put_u32(out, static_cast<std::uint32_t>(keys.size()));
  put_u32(out, stages);
  for (const std::string& key : keys) {
    XPUF_REQUIRE(key.size() == row, "encode_ledger: key width != ceil(stages/8)");
    out.insert(out.end(), key.begin(), key.end());
  }
  return out;
}

RecordStatus decode_ledger(const std::uint8_t* payload, std::uint32_t len,
                           std::uint32_t& stages, std::vector<std::string>& keys) {
  XPUF_REQUIRE(payload != nullptr || len == 0,
               "decode_ledger: null payload with nonzero length");
  RecordReader reader(payload, len);
  std::uint32_t count = 0;
  if (!reader.read_u32(count)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(stages)) return RecordStatus::kBadPayload;
  if (stages == 0 || stages > kMaxStagesPerModel) return RecordStatus::kBadPayload;
  const std::uint64_t row = row_bytes_for(stages);
  if (static_cast<std::uint64_t>(len) != kLedgerFixedBytes + count * row)
    return RecordStatus::kBadPayload;
  keys.clear();
  keys.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key;
    if (!reader.read_bytes(row, key)) return RecordStatus::kBadPayload;
    keys.push_back(std::move(key));
  }
  return RecordStatus::kOk;
}

// --- pool payload ------------------------------------------------------------

namespace {

/// Fixed byte footprint of a POOL payload prefix: u32 count + u32 stages +
/// u32 epoch + u32 reserved + u64 cursor.
constexpr std::uint32_t kPoolFixedBytes = 24;

}  // namespace

std::vector<std::uint8_t> encode_pool(const PoolPayload& pool) {
  XPUF_REQUIRE(pool.stages > 0 && pool.stages <= kMaxStagesPerModel,
               "encode_pool: stages out of range");
  XPUF_REQUIRE(pool.expected.size() == pool.keys.size(),
               "encode_pool: one expected bit per pool entry");
  const std::uint64_t row = row_bytes_for(pool.stages);
  const std::uint64_t bitmap = (pool.keys.size() + 7) / 8;
  std::vector<std::uint8_t> out;
  out.reserve(kPoolFixedBytes + bitmap + pool.keys.size() * row);
  put_u32(out, static_cast<std::uint32_t>(pool.keys.size()));
  put_u32(out, pool.stages);
  put_u32(out, pool.epoch);
  put_u32(out, 0);  // reserved
  put_u64(out, pool.cursor);
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(bitmap), 0);
  for (std::size_t i = 0; i < pool.expected.size(); ++i)
    if (pool.expected[i] != 0) bits[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  out.insert(out.end(), bits.begin(), bits.end());
  for (const std::string& key : pool.keys) {
    XPUF_REQUIRE(key.size() == row, "encode_pool: key width != ceil(stages/8)");
    out.insert(out.end(), key.begin(), key.end());
  }
  return out;
}

RecordStatus decode_pool(const std::uint8_t* payload, std::uint32_t len,
                         PoolPayload& out) {
  XPUF_REQUIRE(payload != nullptr || len == 0,
               "decode_pool: null payload with nonzero length");
  RecordReader reader(payload, len);
  std::uint32_t count = 0;
  std::uint32_t reserved = 0;
  if (!reader.read_u32(count)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(out.stages)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(out.epoch)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(reserved)) return RecordStatus::kBadPayload;
  if (reserved != 0) return RecordStatus::kBadPayload;
  if (!reader.read_u64(out.cursor)) return RecordStatus::kBadPayload;
  if (out.stages == 0 || out.stages > kMaxStagesPerModel) return RecordStatus::kBadPayload;
  const std::uint64_t row = row_bytes_for(out.stages);
  const std::uint64_t bitmap = (static_cast<std::uint64_t>(count) + 7) / 8;
  if (static_cast<std::uint64_t>(len) != kPoolFixedBytes + bitmap + count * row)
    return RecordStatus::kBadPayload;
  std::string bits;
  if (!reader.read_bytes(bitmap, bits)) return RecordStatus::kBadPayload;
  out.expected.assign(count, 0);
  for (std::uint32_t i = 0; i < count; ++i)
    out.expected[i] =
        static_cast<std::uint8_t>((static_cast<std::uint8_t>(bits[i / 8]) >> (i % 8)) & 1u);
  out.keys.clear();
  out.keys.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key;
    if (!reader.read_bytes(row, key)) return RecordStatus::kBadPayload;
    out.keys.push_back(std::move(key));
  }
  return RecordStatus::kOk;
}

// --- zero-copy model view ----------------------------------------------------

bool model_view_from_payload(const std::uint8_t* payload, std::uint32_t len,
                             std::uint64_t device_id,
                             std::shared_ptr<const void> owner, ModelView& out) {
  std::uint32_t puf_count = 0;
  std::uint32_t stages = 0;
  if (peek_model_shape(payload, len, puf_count, stages) != RecordStatus::kOk) return false;
  if (len != model_payload_bytes(puf_count, stages)) return false;
  // The f64 region starts right after the two u32 geometry fields. Serving
  // weights in place requires it to sit on an 8-byte boundary — guaranteed
  // for records written through append_alignment_pad, checked here so a
  // store predating aligned compaction just falls back to the decode path.
  const std::uint8_t* f64_begin = payload + 8;
  if (reinterpret_cast<std::uintptr_t>(f64_begin) % alignof(double) != 0) return false;
  // On-disk doubles are IEEE-754 little-endian bit patterns (put_f64), which
  // on this target IS the in-memory representation, so pointing spans at the
  // mapping is exact. The static_assert keeps a big-endian port honest.
  static_assert(std::endian::native == std::endian::little,
                "zero-copy model serving assumes little-endian doubles");
  const double* d = reinterpret_cast<const double*>(f64_begin);
  BetaFactors betas;
  betas.beta0 = d[0];
  betas.beta1 = d[1];
  const std::size_t per_puf = 4 + static_cast<std::size_t>(stages) + 1;
  std::vector<const double*> weights;
  std::vector<ThresholdPair> thresholds;
  weights.reserve(puf_count);
  thresholds.reserve(puf_count);
  for (std::uint32_t p = 0; p < puf_count; ++p) {
    const double* block = d + 2 + static_cast<std::size_t>(p) * per_puf;
    ThresholdPair thr;
    thr.thr0 = block[0];
    thr.thr1 = block[1];
    // block[2] (r^2) and block[3] (fit time) are enrollment bookkeeping the
    // hot path never reads.
    thresholds.push_back(thr);
    weights.push_back(block + 4);
  }
  out = ModelView::from_parts(device_id, stages, betas, std::move(weights),
                              std::move(thresholds), std::move(owner));
  return true;
}

// --- alignment pad -----------------------------------------------------------

// Every (buffer, base offset) pair is legal — the pad length is pure mod-8
// arithmetic on their sum.  xpuf-lint: allow(require-guard)
void append_alignment_pad(std::vector<std::uint8_t>& out, std::uint64_t base_offset) {
  const std::uint64_t offset = base_offset + out.size();
  if (offset % 8 == 0) return;
  // Pad record total = header (16) + payload (p) + crc (4); choose p in
  // [0, 7] so the next record begins on an 8-byte boundary.
  const std::uint64_t p = (8 - ((offset + kRecordHeaderBytes + kRecordTrailerBytes) % 8)) % 8;
  const std::vector<std::uint8_t> payload(static_cast<std::size_t>(p), 0);
  encode_record(out, OpType::kPad, 0, payload);
}

// --- shard manifest ----------------------------------------------------------

std::vector<std::uint8_t> encode_manifest(std::uint32_t n_shards) {
  XPUF_REQUIRE(n_shards > 0, "encode_manifest: zero shards");
  std::vector<std::uint8_t> out;
  out.reserve(kManifestBytes);
  put_u16(out, kManifestMagic);
  put_u8(out, kStoreVersion);
  put_u8(out, 0);
  put_u32(out, n_shards);
  put_u32(out, crc32(out.data(), out.size()));
  return out;
}

RecordStatus decode_manifest(const std::uint8_t* data, std::uint64_t size,
                             std::uint32_t& n_shards) {
  if (size < kManifestBytes) return RecordStatus::kTruncated;
  if (size > kManifestBytes) return RecordStatus::kBadLength;
  RecordReader reader(data, size);
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t reserved = 0;
  if (!reader.read_u16(magic)) return RecordStatus::kTruncated;
  if (magic != kManifestMagic) return RecordStatus::kBadMagic;
  if (!reader.read_u8(version)) return RecordStatus::kTruncated;
  if (version != kStoreVersion) return RecordStatus::kBadVersion;
  if (!reader.read_u8(reserved)) return RecordStatus::kTruncated;
  if (!reader.read_u32(n_shards)) return RecordStatus::kTruncated;
  std::uint32_t stored_crc = 0;
  if (!reader.read_u32(stored_crc)) return RecordStatus::kTruncated;
  if (crc32(data, kManifestBytes - kRecordTrailerBytes) != stored_crc)
    return RecordStatus::kBadChecksum;
  if (n_shards == 0) return RecordStatus::kBadPayload;
  return RecordStatus::kOk;
}

// --- packed challenge keys ---------------------------------------------------

std::string pack_challenge(const Challenge& challenge) {
  XPUF_REQUIRE(!challenge.empty(), "pack_challenge: empty challenge");
  std::string key(static_cast<std::size_t>(row_bytes_for(challenge.size())), '\0');
  for (std::size_t i = 0; i < challenge.size(); ++i)
    if (challenge[i] != 0)
      key[i / 8] = static_cast<char>(static_cast<std::uint8_t>(key[i / 8]) |
                                     static_cast<std::uint8_t>(1u << (i % 8)));
  return key;
}

Challenge unpack_challenge(const std::string& key, std::size_t bits) {
  XPUF_REQUIRE(key.size() == row_bytes_for(bits),
               "unpack_challenge: key width != ceil(bits/8)");
  Challenge challenge(bits, 0);
  for (std::size_t i = 0; i < bits; ++i)
    challenge[i] =
        static_cast<std::uint8_t>((static_cast<std::uint8_t>(key[i / 8]) >> (i % 8)) & 1u);
  return challenge;
}

}  // namespace xpuf::puf::store
