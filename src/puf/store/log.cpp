// The store's stdio-based record log predates the net/async syscall wrapper
// layer and reports fopen/fwrite failures through errno_suffix(); its errno
// reads never branch on EINTR/EAGAIN, so routing them through the socket
// wrappers would add a dependency without removing a hazard.
// xpuf-lint: allow-file(raw-syscall)
#include "puf/store/log.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "puf/store/record.hpp"

namespace xpuf::puf::store {

namespace {

std::string errno_suffix() {
  return errno != 0 ? std::string(": ") + std::strerror(errno) : std::string();
}

/// Reads a whole file; returns false when the file does not exist, throws
/// AccessError on any other I/O failure.
bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  XPUF_REQUIRE(!path.empty(), "read_file: empty path");
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    throw AccessError("cannot stat " + path + errno_suffix());
  }
  out.resize(static_cast<std::size_t>(end));
  std::fseek(f, 0, SEEK_SET);
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (got != out.size()) throw AccessError("short read from " + path);
  return true;
}

/// Commits `bytes` under `path` without ever exposing a partial file: the
/// contents land in `<path>.tmp` first and the rename is the atomic switch.
/// Refuses empty contents — an empty shard is an empty or absent file, so
/// committing a zero-byte file is always a caller bug.
void write_file_atomic(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  XPUF_REQUIRE(!bytes.empty(), "write_file_atomic: refusing to commit an empty file");
  const std::string tmp = path + ".tmp";
  errno = 0;
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw AccessError("cannot create " + tmp + errno_suffix());
  const std::size_t put = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (put != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw AccessError("short write to " + tmp);
  }
  errno = 0;
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw AccessError("cannot rename " + tmp + " over " + path + errno_suffix());
}

/// Reads `dir`'s shard manifest into `n_shards`. Returns false when no
/// manifest exists; throws ParseError when one exists but is corrupt.
bool read_manifest(const std::string& dir, std::uint32_t& n_shards) {
  const std::string manifest_path = dir + "/store_manifest";
  std::vector<std::uint8_t> manifest;
  if (!read_file(manifest_path, manifest)) return false;
  const RecordStatus status = decode_manifest(manifest.data(), manifest.size(), n_shards);
  if (status != RecordStatus::kOk)
    throw ParseError("store manifest " + manifest_path + ": " + std::string(to_string(status)));
  return true;
}

}  // namespace

// --- AppendLog ---------------------------------------------------------------

AppendLog::~AppendLog() {
  if (file_ != nullptr) std::fclose(file_);
}

AppendLog::AppendLog(AppendLog&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      path_(std::move(other.path_)),
      size_(std::exchange(other.size_, 0)) {}

AppendLog& AppendLog::operator=(AppendLog&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = std::exchange(other.file_, nullptr);
    path_ = std::move(other.path_);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

AppendLog AppendLog::open(const std::string& path) {
  errno = 0;
  // Append mode (O_APPEND): every write lands at the current end of file,
  // so append() needs no seek; reads go through pread and never move it.
  std::FILE* f = std::fopen(path.c_str(), "a+b");
  if (f == nullptr) throw AccessError("cannot open log " + path + errno_suffix());
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    throw AccessError("cannot stat log " + path + errno_suffix());
  }
  AppendLog log;
  log.file_ = f;
  log.path_ = path;
  log.size_ = static_cast<std::uint64_t>(end);
  return log;
}

std::uint64_t AppendLog::append(const std::vector<std::uint8_t>& bytes) {
  XPUF_REQUIRE(is_open(), "append on a closed log");
  const std::size_t put = std::fwrite(bytes.data(), 1, bytes.size(), file_);
  if (put != bytes.size() || std::fflush(file_) != 0)
    throw AccessError("short append to " + path_);
  size_ += bytes.size();
  return size_;
}

void AppendLog::read_all(std::vector<std::uint8_t>& out) const { read_at(0, size_, out); }

void AppendLog::read_at(std::uint64_t offset, std::uint64_t length,
                        std::vector<std::uint8_t>& out) const {
  XPUF_REQUIRE(is_open(), "read_at on a closed log");
  if (offset > size_ || length > size_ - offset)
    throw AccessError("read window [" + std::to_string(offset) + ", +" +
                      std::to_string(length) + ") outside " + path_ + " (size " +
                      std::to_string(size_) + "): index/log mismatch");
  out.resize(static_cast<std::size_t>(length));
  // pread(2) on the descriptor, bypassing the stdio buffer: append() flushes
  // before returning, so every acknowledged byte is already in the file.
  std::size_t got = 0;
  while (got < out.size()) {
    errno = 0;
    const ssize_t n = ::pread(fileno(file_), out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n <= 0) throw AccessError("short read from " + path_ + errno_suffix());
    got += static_cast<std::size_t>(n);
  }
}

void AppendLog::truncate_to(std::uint64_t new_size) {
  XPUF_REQUIRE(is_open(), "truncate_to on a closed log");
  XPUF_REQUIRE(new_size <= size_, "truncate_to cannot grow the log");
  std::fflush(file_);
  if (ftruncate(fileno(file_), static_cast<off_t>(new_size)) != 0)
    throw AccessError("cannot truncate " + path_ + errno_suffix());
  size_ = new_size;
}

void AppendLog::replace_with(const std::vector<std::uint8_t>& bytes) {
  XPUF_REQUIRE(is_open(), "replace_with on a closed log");
  // The rename inside write_file_atomic is the commit point: readers see the
  // complete old file up to it and the complete new file after it, never a
  // mix. The open handle names the old inode until it is reopened here.
  write_file_atomic(path_, bytes);
  std::fclose(file_);
  errno = 0;
  file_ = std::fopen(path_.c_str(), "a+b");
  if (file_ == nullptr) throw AccessError("cannot reopen " + path_ + errno_suffix());
  size_ = bytes.size();
}

// --- ShardedLog --------------------------------------------------------------

ShardedLog ShardedLog::open(const std::string& dir, std::uint32_t default_shards) {
  XPUF_REQUIRE(default_shards > 0, "ShardedLog: zero shards");
  ensure_directory(dir);
  std::uint32_t n_shards = default_shards;
  if (!read_manifest(dir, n_shards))
    write_file_atomic(dir + "/store_manifest", encode_manifest(n_shards));
  ShardedLog log;
  log.dir_ = dir;
  log.shards_.reserve(n_shards);
  for (std::uint32_t k = 0; k < n_shards; ++k)
    log.shards_.push_back(AppendLog::open(dir + "/shard_" + std::to_string(k) + ".log"));
  return log;
}

AppendLog& ShardedLog::shard(std::uint32_t k) {
  XPUF_REQUIRE(k < shards_.size(), "shard index out of range");
  return shards_[k];
}

const AppendLog& ShardedLog::shard(std::uint32_t k) const {
  XPUF_REQUIRE(k < shards_.size(), "shard index out of range");
  return shards_[k];
}

}  // namespace xpuf::puf::store
