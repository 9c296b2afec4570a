// Sharded append-only log files of the enrollment store.
//
// An AppendLog is one shard file: records are only ever appended (an
// append-mode fwrite + fflush), read back with pread(2) either whole (recovery
// replay) or by exact [offset, length) window (cache misses, pool drains),
// and replaced wholesale only through write-temp-then-rename (compaction) —
// so at every instant the named file on disk is either the complete old
// contents or the complete new contents, never a partial mix. A crash
// mid-append leaves at most one torn record at the tail, which recovery
// truncates away.
//
// ShardedLog owns the directory: a fixed-size crc'd manifest records the
// shard fan-out (device_id % n_shards routes every op), and shard k lives
// in `shard_<k>.log`.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace xpuf::puf::store {

class AppendLog {
 public:
  AppendLog() = default;
  ~AppendLog();
  AppendLog(AppendLog&& other) noexcept;
  AppendLog& operator=(AppendLog&& other) noexcept;
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Opens (creating if missing) the log file. Throws AccessError on I/O
  /// failure.
  static AppendLog open(const std::string& path);

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Current end-of-file offset — the offset the next append lands at.
  std::uint64_t size() const { return size_; }

  /// Appends `bytes` at the end and flushes; returns the end offset AFTER
  /// the write (the record's durable high-water mark).
  std::uint64_t append(const std::vector<std::uint8_t>& bytes);

  /// Reads the whole file into `out` (recovery replay).
  void read_all(std::vector<std::uint8_t>& out) const;

  /// Reads exactly [offset, offset + length) into `out`; throws AccessError
  /// if the window is outside the file (an index/file mismatch is store
  /// corruption, not a soft miss).
  void read_at(std::uint64_t offset, std::uint64_t length,
               std::vector<std::uint8_t>& out) const;

  /// Drops everything at and after `new_size` — recovery uses this to cut a
  /// torn tail record so later appends extend a clean prefix.
  void truncate_to(std::uint64_t new_size);

  /// Atomically replaces the file contents: writes `bytes` to `<path>.tmp`,
  /// renames over `path`, reopens. The rename is the commit point.
  void replace_with(const std::vector<std::uint8_t>& bytes);

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t size_ = 0;
};

class ShardedLog {
 public:
  /// Opens the store directory: reads the manifest when present (ParseError
  /// if corrupt), otherwise creates one recording `default_shards`. The
  /// manifest itself is committed via temp-then-rename.
  static ShardedLog open(const std::string& dir, std::uint32_t default_shards);

  const std::string& dir() const { return dir_; }
  std::uint32_t n_shards() const { return static_cast<std::uint32_t>(shards_.size()); }
  std::uint32_t shard_of(std::uint64_t device_id) const {
    return static_cast<std::uint32_t>(device_id % shards_.size());
  }

  AppendLog& shard(std::uint32_t k);
  const AppendLog& shard(std::uint32_t k) const;

 private:
  ShardedLog() = default;

  std::string dir_;
  std::vector<AppendLog> shards_;
};

}  // namespace xpuf::puf::store
