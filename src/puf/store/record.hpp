// Fixed-width binary record codec of the enrollment store.
//
// The server must durably remember every enrolled model and every challenge
// it ever issued — the issued-challenge ledger IS the replay defense — so
// store records follow the same byte-exact discipline as the net/ wire
// frames, through the same common/ primitives (byte_codec.hpp, crc32.hpp),
// and the xpuf_lint `wire-pairing` pass checks both codecs.
//
// Record layout (all integers little-endian, fixed width):
//
//   offset  size  field
//        0     2  magic        0x5253 ("SR": store record)
//        2     1  version      kStoreVersion
//        3     1  op           OpType (register / revoke / issue)
//        4     8  device_id
//       12     4  payload_len  bytes that follow before the checksum
//       16     n  payload
//     16+n     4  crc32        over bytes [0, 16+n)
//
// A store file is a plain concatenation of records (an op log); decoding is
// streaming — decode_record() consumes one record at an offset and reports
// kTruncated for a partial tail, so a crash mid-append loses at most the
// record being written, never the prefix. Challenges are packed one BIT per
// stage (LSB-first, like the wire challenge batches), not one char per bit.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/byte_codec.hpp"
#include "common/crc32.hpp"
#include "puf/enrollment.hpp"
#include "puf/model_view.hpp"
#include "puf/store/challenge_set.hpp"

namespace xpuf::puf::store {

inline constexpr std::uint16_t kRecordMagic = 0x5253;  // "SR"
inline constexpr std::uint8_t kStoreVersion = 1;
inline constexpr std::uint32_t kRecordHeaderBytes = 16;
inline constexpr std::uint32_t kRecordTrailerBytes = 4;
/// Upper bound on payload size; larger length prefixes are rejected as
/// kBadLength before any allocation, so a corrupt length cannot OOM.
inline constexpr std::uint32_t kMaxRecordPayloadBytes = 1u << 24;
/// Geometry bounds of a model payload — generous, but small enough that a
/// corrupt count field cannot drive a giant allocation.
inline constexpr std::uint32_t kMaxPufsPerModel = 4096;
inline constexpr std::uint32_t kMaxStagesPerModel = 4096;

/// Typed operations of the append-only log. Replay applies them in order,
/// so a revoke permanently shadows every earlier record of its device — the
/// structural fix for the PR 3 revoke-resurrection class of bug.
enum class OpType : std::uint8_t {
  kRegister = 1,  ///< full ServerModel snapshot for a device
  kRevoke = 2,    ///< device removed; payload empty
  kIssue = 3,     ///< ledger append: packed challenges issued to the device
  kPool = 4,      ///< pre-screened stable-challenge pool; latest epoch wins
  kPad = 5,       ///< alignment filler (0-7 zero bytes) so the f64 region of
                  ///< the next REGISTER payload lands 8-byte aligned for
                  ///< zero-copy mmap serving; no device semantics
};

/// Largest legal kPad payload: a pad exists only to reach the next 8-byte
/// boundary, so anything longer is corruption.
inline constexpr std::uint32_t kMaxPadBytes = 7;

bool is_known_op(std::uint8_t raw);

enum class RecordStatus : std::uint8_t {
  kOk = 0,
  kTruncated,    ///< fewer bytes than header + payload_len + checksum
  kBadMagic,
  kBadVersion,
  kBadOp,
  kBadLength,    ///< payload_len exceeds kMaxRecordPayloadBytes
  kBadChecksum,
  kBadPayload,   ///< payload codec found malformed contents
};

const char* to_string(RecordStatus status);

// --- byte-order codecs ------------------------------------------------------
// Integers go through the shared common/byte_codec.hpp (put_uN, ByteReader),
// the same primitives the net/ wire frames use; doubles travel as their
// IEEE-754 bit pattern in a little-endian u64, so a model round-trips
// bit-exactly on any host.

/// Writes v's bit pattern as eight little-endian bytes at `at` (explicit
/// shifts, so every host writes the same bytes) and returns the byte past
/// them. Writers size their buffer once and store each double in place.
inline std::uint8_t* store_f64(double v, std::uint8_t* at) {
  static_assert(std::numeric_limits<double>::is_iec559,
                "store codec requires IEEE-754 doubles");
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  for (std::uint32_t b = 0; b < 8; ++b) at[b] = static_cast<std::uint8_t>(bits >> (8 * b));
  return at + 8;
}

inline bool read_f64(ByteReader& reader, double& v) {
  std::uint64_t bits = 0;
  if (!reader.read_u64(bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

// --- record framing ---------------------------------------------------------

/// A decoded record, viewing (not copying) the payload bytes of the buffer
/// it was decoded from. `begin`/`end` are buffer offsets of the record's
/// first byte and one past its trailer — the replay cursor and the torture
/// test's truncation bookkeeping both key on `end`.
struct RecordView {
  OpType op = OpType::kRevoke;
  std::uint64_t device_id = 0;
  const std::uint8_t* payload = nullptr;
  std::uint32_t payload_len = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Appends one framed record (header + payload + crc) to `out`.
void encode_record(std::vector<std::uint8_t>& out, OpType op, std::uint64_t device_id,
                   const std::vector<std::uint8_t>& payload);

/// Decodes the record starting at `offset`; `out` views into `data` and is
/// valid only on kOk. Never throws — a truncated or corrupt tail is a state
/// the recovery path must classify, not a crash.
RecordStatus decode_record(const std::uint8_t* data, std::uint64_t size,
                           std::uint64_t offset, RecordView& out);

// --- payload codecs ---------------------------------------------------------

/// REGISTER payload: u32 puf_count, u32 stages, f64 beta0, f64 beta1, then
/// per PUF: f64 thr0, f64 thr1, f64 r_squared, f64 fit_time_ms and
/// (stages + 1) f64 weights.
std::vector<std::uint8_t> encode_model(const ServerModel& model);
RecordStatus decode_model(const std::uint8_t* payload, std::uint32_t len,
                          std::uint64_t device_id, ServerModel& out);

/// Reads only the geometry prefix of a REGISTER payload — replay indexes
/// records without materializing weights, but compaction needs the stages.
RecordStatus peek_model_shape(const std::uint8_t* payload, std::uint32_t len,
                              std::uint32_t& puf_count, std::uint32_t& stages);

/// Exact byte size of a REGISTER payload with this geometry — replay checks
/// the stored length against it without decoding the weights.
std::uint64_t model_payload_bytes(std::uint32_t puf_count, std::uint32_t stages);

/// ISSUE payload: u32 count, u32 stages, then count rows of
/// ceil(stages / 8) bytes — the ledger keys in sim::packed_bytes form. In
/// memory the same keys are packed rows of sim::packed_words(stages) words
/// (ChallengeSet keys); `rows` holds them back to back.
std::vector<std::uint8_t> encode_ledger(std::uint32_t stages,
                                        std::span<const std::uint64_t> rows);
/// Decodes straight into `into`, which must be a set of the payload's
/// stages. kBadPayload for a malformed payload, a stage-count mismatch, or a
/// row with a bit set above `stages` (checked before anything is inserted);
/// `inserted` counts the rows that were new to the set.
RecordStatus decode_ledger(const std::uint8_t* payload, std::uint32_t len,
                           ChallengeSet& into, std::uint64_t& inserted);

/// Decoded POOL payload: the device's pre-screened stable-challenge pool.
/// Entry i is the packed row at words[i * packed_words(stages)], with
/// `expected[i]` its predicted XOR bit; `cursor` is the candidate-stream
/// index the next refill resumes screening from, `epoch` the pool
/// generation — replay keeps only the record appended last per device.
struct PoolPayload {
  std::uint32_t stages = 0;
  std::uint32_t epoch = 0;
  std::uint64_t cursor = 0;
  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> expected;  ///< one 0/1 byte per entry

  std::size_t size() const { return expected.size(); }
};

/// POOL payload: u32 count, u32 stages, u32 epoch, u32 reserved(0),
/// u64 cursor, ceil(count / 8) expected-bit bytes (bit i of byte i/8 =
/// expected response of entry i, LSB-first like the challenge packing),
/// then count rows of ceil(stages / 8) packed challenge bytes.
std::vector<std::uint8_t> encode_pool(const PoolPayload& pool);

/// A validated POOL payload, viewed in place: the decode reads the fixed
/// fields and checks the length and every row (a bit set above `stages`
/// is kBadPayload), so replay indexes a pool without copying it and a
/// drain materializes only the entries it takes.
struct PoolView {
  std::uint32_t count = 0;
  std::uint32_t stages = 0;
  std::uint32_t epoch = 0;
  std::uint64_t cursor = 0;
  const std::uint8_t* bits = nullptr;  ///< the expected-bit bitmap
  const std::uint8_t* rows = nullptr;  ///< count rows of ceil(stages / 8) bytes

  /// Appends entries [first, first + n) (first + n <= count) as packed
  /// rows and 0/1 expected bytes.
  void read(std::uint32_t first, std::uint32_t n, std::vector<std::uint64_t>& words,
            std::vector<std::uint8_t>& expected) const;
};
RecordStatus decode_pool(const std::uint8_t* payload, std::uint32_t len, PoolView& out);

/// Builds a zero-copy ModelView straight over a REGISTER payload — the mmap
/// serving path: the view's weight spans point into `payload` itself, no
/// parse, no copy. Returns false (leaving `out` untouched) when the payload
/// is malformed or its f64 region is not 8-byte aligned in memory; callers
/// fall back to decode_model. `owner` (typically the shard mapping) keeps
/// the bytes alive for the view's lifetime.
bool model_view_from_payload(const std::uint8_t* payload, std::uint32_t len,
                             std::uint64_t device_id,
                             std::shared_ptr<const void> owner, ModelView& out);

/// Appends one kPad record iff `base_offset + out.size()` — the file offset
/// the next record would land at — is not 8-byte aligned, sized so the next
/// record appended begins on an 8-byte boundary. A REGISTER record starting
/// at an aligned offset has its f64 region (record offset 24) aligned too,
/// which is what zero-copy serving from a page-aligned mapping requires.
/// `base_offset` is the file offset `out` will be appended at (0 for a
/// buffer that becomes a whole shard). No-op when already aligned.
void append_alignment_pad(std::vector<std::uint8_t>& out, std::uint64_t base_offset = 0);

// --- shard manifest ---------------------------------------------------------
// Tiny fixed-size file at the store root recording the shard fan-out.
//
//   offset  size  field
//        0     2  magic      0x534D ("MS": manifest of shards)
//        2     1  version    kStoreVersion
//        3     1  reserved   0
//        4     4  n_shards
//        8     4  crc32      over bytes [0, 8)

inline constexpr std::uint16_t kManifestMagic = 0x534D;  // "MS"
inline constexpr std::uint32_t kManifestBytes = 12;

std::vector<std::uint8_t> encode_manifest(std::uint32_t n_shards);
RecordStatus decode_manifest(const std::uint8_t* data, std::uint64_t size,
                             std::uint32_t& n_shards);

}  // namespace xpuf::puf::store
