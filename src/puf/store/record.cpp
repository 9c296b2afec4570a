#include "puf/store/record.hpp"

#include <utility>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "linalg/vector.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf::store {

bool is_known_op(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(OpType::kRegister) &&
         raw <= static_cast<std::uint8_t>(OpType::kPad);
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

namespace {

/// Fixed byte footprint of a REGISTER payload's geometry + beta prefix:
/// u32 puf_count + u32 stages (the f64 betas follow but are not part of the
/// put_uN accounting).
constexpr std::uint32_t kModelFixedBytes = 8;
/// Fixed byte footprint of an ISSUE payload prefix: u32 count + u32 stages.
constexpr std::uint32_t kLedgerFixedBytes = 8;

}  // namespace

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
  ByteReader reader(data + offset, size - offset);
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
  // The doubles: one resize, then each stored in place.
  out.resize(kModelFixedBytes + 2 * sizeof(double) + puf_count * per_puf);
  std::uint8_t* at = out.data() + kModelFixedBytes;
  at = store_f64(model.betas().beta0, at);
  at = store_f64(model.betas().beta1, at);
  for (std::size_t p = 0; p < puf_count; ++p) {
    const PufEnrollment& e = model.puf(p);
    at = store_f64(e.thresholds.thr0, at);
    at = store_f64(e.thresholds.thr1, at);
    at = store_f64(e.train_r_squared, at);
    at = store_f64(e.fit_time_ms, at);
    const linalg::Vector& w = e.model.weights();
    for (std::size_t i = 0; i < w.size(); ++i) at = store_f64(w[i], at);
  }
  return out;
}

RecordStatus decode_model(const std::uint8_t* payload, std::uint32_t len,
                          std::uint64_t device_id, ServerModel& out) {
  ByteReader reader(payload, len);
  std::uint32_t puf_count = 0;
  std::uint32_t stages = 0;
  if (!reader.read_u32(puf_count)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(stages)) return RecordStatus::kBadPayload;
  if (puf_count == 0 || puf_count > kMaxPufsPerModel) return RecordStatus::kBadPayload;
  if (stages == 0 || stages > kMaxStagesPerModel) return RecordStatus::kBadPayload;
  if (len != model_payload_bytes(puf_count, stages)) return RecordStatus::kBadPayload;
  BetaFactors betas;
  if (!read_f64(reader, betas.beta0)) return RecordStatus::kBadPayload;
  if (!read_f64(reader, betas.beta1)) return RecordStatus::kBadPayload;
  std::vector<PufEnrollment> pufs;
  pufs.reserve(puf_count);
  for (std::uint32_t p = 0; p < puf_count; ++p) {
    PufEnrollment e;
    if (!read_f64(reader, e.thresholds.thr0)) return RecordStatus::kBadPayload;
    if (!read_f64(reader, e.thresholds.thr1)) return RecordStatus::kBadPayload;
    if (!read_f64(reader, e.train_r_squared)) return RecordStatus::kBadPayload;
    if (!read_f64(reader, e.fit_time_ms)) return RecordStatus::kBadPayload;
    std::vector<double> weights(stages + 1);
    for (double& w : weights)
      if (!read_f64(reader, w)) return RecordStatus::kBadPayload;
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
  ByteReader reader(payload, len);
  if (!reader.read_u32(puf_count)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(stages)) return RecordStatus::kBadPayload;
  if (puf_count == 0 || puf_count > kMaxPufsPerModel) return RecordStatus::kBadPayload;
  if (stages == 0 || stages > kMaxStagesPerModel) return RecordStatus::kBadPayload;
  return RecordStatus::kOk;
}

// --- ledger payload ----------------------------------------------------------

namespace {

/// True when none of `count` on-disk rows has a bit set above `stages` —
/// the one byte form per challenge that keeps ledger keys unique.
bool rows_canonical(const std::uint8_t* rows, std::uint64_t count, std::uint32_t stages) {
  const std::uint64_t row = sim::packed_bytes(stages);
  for (std::uint64_t i = 0; i < count && stages % 8 != 0; ++i)
    if ((rows[i * row + row - 1] >> (stages % 8)) != 0) return false;
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_ledger(std::uint32_t stages,
                                        std::span<const std::uint64_t> rows) {
  XPUF_REQUIRE(stages > 0, "encode_ledger: zero stages");
  const std::size_t stride = sim::packed_words(stages);
  XPUF_REQUIRE(rows.size() % stride == 0, "encode_ledger: rows need packed_words(stages) words");
  const std::size_t count = rows.size() / stride;
  std::vector<std::uint8_t> out;
  out.reserve(kLedgerFixedBytes + count * sim::packed_bytes(stages));
  put_u32(out, static_cast<std::uint32_t>(count));
  put_u32(out, stages);
  sim::append_packed_bytes(rows, stages, out);
  return out;
}

RecordStatus decode_ledger(const std::uint8_t* payload, std::uint32_t len,
                           ChallengeSet& into, std::uint64_t& inserted) {
  XPUF_REQUIRE(payload != nullptr || len == 0,
               "decode_ledger: null payload with nonzero length");
  ByteReader reader(payload, len);
  std::uint32_t count = 0;
  std::uint32_t stages = 0;
  if (!reader.read_u32(count)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(stages)) return RecordStatus::kBadPayload;
  if (stages == 0 || stages > kMaxStagesPerModel || stages != into.stages())
    return RecordStatus::kBadPayload;
  const std::uint64_t row = sim::packed_bytes(stages);
  const std::uint8_t* rows = payload + reader.position();
  if (static_cast<std::uint64_t>(len) != kLedgerFixedBytes + count * row ||
      !rows_canonical(rows, count, stages))
    return RecordStatus::kBadPayload;
  std::vector<std::uint64_t> key(into.stride());
  into.reserve(into.size() + count);
  inserted = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    sim::read_packed_bytes(rows + i * row, stages, key);
    if (into.insert(key)) ++inserted;
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
  const std::size_t stride = sim::packed_words(pool.stages);
  const std::size_t count = pool.size();
  XPUF_REQUIRE(pool.words.size() == count * stride,
               "encode_pool: one packed row per expected bit");
  const std::uint64_t bitmap = (count + 7) / 8;
  std::vector<std::uint8_t> out;
  out.reserve(kPoolFixedBytes + bitmap + count * sim::packed_bytes(pool.stages));
  put_u32(out, static_cast<std::uint32_t>(count));
  put_u32(out, pool.stages);
  put_u32(out, pool.epoch);
  put_u32(out, 0);  // reserved
  put_u64(out, pool.cursor);
  out.resize(out.size() + bitmap, 0);
  std::uint8_t* bits = out.data() + kPoolFixedBytes;
  for (std::size_t i = 0; i < count; ++i)
    if (pool.expected[i] != 0) bits[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  sim::append_packed_bytes(pool.words, pool.stages, out);
  return out;
}

RecordStatus decode_pool(const std::uint8_t* payload, std::uint32_t len, PoolView& out) {
  XPUF_REQUIRE(payload != nullptr || len == 0,
               "decode_pool: null payload with nonzero length");
  ByteReader reader(payload, len);
  std::uint32_t reserved = 0;
  if (!reader.read_u32(out.count)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(out.stages)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(out.epoch)) return RecordStatus::kBadPayload;
  if (!reader.read_u32(reserved)) return RecordStatus::kBadPayload;
  if (reserved != 0) return RecordStatus::kBadPayload;
  if (!reader.read_u64(out.cursor)) return RecordStatus::kBadPayload;
  if (out.stages == 0 || out.stages > kMaxStagesPerModel) return RecordStatus::kBadPayload;
  const std::uint64_t bitmap = (static_cast<std::uint64_t>(out.count) + 7) / 8;
  if (static_cast<std::uint64_t>(len) !=
      kPoolFixedBytes + bitmap + out.count * sim::packed_bytes(out.stages))
    return RecordStatus::kBadPayload;
  out.bits = payload + reader.position();
  out.rows = out.bits + bitmap;
  return rows_canonical(out.rows, out.count, out.stages) ? RecordStatus::kOk
                                                         : RecordStatus::kBadPayload;
}

void PoolView::read(std::uint32_t first, std::uint32_t n, std::vector<std::uint64_t>& words,
                    std::vector<std::uint8_t>& expected) const {
  XPUF_REQUIRE(first <= count && n <= count - first, "pool slice out of range");
  const std::size_t stride = sim::packed_words(stages);
  const std::size_t at = words.size();
  words.resize(at + n * stride);
  sim::read_packed_bytes(rows + first * sim::packed_bytes(stages), stages,
                         {words.data() + at, n * stride});
  for (std::uint32_t i = first; i < first + n; ++i)
    expected.push_back(static_cast<std::uint8_t>((bits[i / 8] >> (i % 8)) & 1u));
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
  // On-disk doubles are IEEE-754 little-endian bit patterns (store_f64), which
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
  ByteReader reader(data, size);
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

}  // namespace xpuf::puf::store
