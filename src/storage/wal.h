// Write-ahead log: an append-only file of checksummed records, one per
// accepted mutation (the engine logs stream creation and every accepted
// domain). Recovery = replay the longest valid prefix into a fresh engine.
//
// File format CERLWAL2 (little-endian): the 8-byte magic "CERLWAL2", then
// records back to back. Record wire format:
//   offset  size  field
//   0       4     payload_len
//   4       4     type (caller-defined tag)
//   8       8     Checksum64 (util/binary_io) of bytes [0, 8) + payload
//   16      len   payload
// The first version had no file magic and FNV-1a record checksums.
//
// Open() refuses (IoError, file left byte-identical) a non-empty file that
// does not start with the magic: every record of another version would
// fail its checksum, and treating that as a torn tail would truncate the
// log to nothing. A file shorter than the magic that is a prefix of it is
// a crash during creation and opens as an empty log.
//
// Past the magic, Open() scans record by record and stops at the first
// record that is short, oversized, or fails its checksum — the signature
// of a crash mid-append (torn tail) or of on-disk corruption. Everything
// before that point is recovered; the file is truncated to the valid
// prefix so subsequent appends continue from a clean boundary.
//
// Durability contract: Append() returns after the write() syscall
// completes, which survives process death. Surviving machine/power failure
// requires fsync_each_append=true (one fsync per accepted record).
//
// Thread safety: Append/Compact/size accessors are mutex-serialized.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cerl {
namespace storage {

class Wal {
 public:
  struct Record {
    uint32_t type = 0;
    std::string payload;
  };

  struct Options {
    /// fsync after every append (machine-crash durability) vs write()-only
    /// (process-crash durability, much cheaper).
    bool fsync_each_append = false;
  };

  /// Opens (or creates) the log at `path`, recovering the valid record
  /// prefix and truncating any torn tail. A file of another format version
  /// is an IoError and stays untouched.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           const Options& options);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Records recovered by Open() (in log order). Stable for the Wal's
  /// lifetime; replay consumes this once after Open.
  const std::vector<Record>& recovered() const { return recovered_; }
  /// Record bytes dropped by torn-tail truncation at Open (0 = clean log).
  uint64_t truncated_bytes() const { return truncated_bytes_; }

  /// Appends one record. On any failure the file is restored to its
  /// pre-append length: a record is either fully logged or not at all.
  Status Append(uint32_t type, std::string_view payload);

  /// Rewrites the log down to the records `keep(type, payload)` accepts,
  /// copying their bytes verbatim (crash-safe: temp file + rename). Used
  /// after a snapshot to drop the records it subsumes. Appends wait while
  /// the file is rewritten. If the rewritten log cannot be reopened, the
  /// log is closed and every later Append returns IoError.
  Status Compact(
      const std::function<bool(uint32_t type, std::string_view payload)>&
          keep);

  /// File size, the magic included.
  uint64_t size_bytes() const;
  uint64_t appended_records() const;
  const std::string& path() const { return path_; }

 private:
  Wal(std::string path, Options options);

  static std::string EncodeRecord(uint32_t type, std::string_view payload);

  const std::string path_;
  const Options options_;
  std::vector<Record> recovered_;
  uint64_t truncated_bytes_ = 0;

  mutable std::mutex mutex_;
  int fd_ = -1;
  uint64_t size_bytes_ = 0;
  uint64_t appended_records_ = 0;
};

}  // namespace storage
}  // namespace cerl
