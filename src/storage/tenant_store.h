// Blob store over the page layer: maps a tenant key to a chain of pages
// holding one serialized state blob (the engine stores CERLCKP2 trainer
// checkpoints here when a tenant is spilled).
//
// Chain layout (all pages):
//   offset  size  field
//   0       4     next PageId (0 = last page of the chain)
//   head page only, after next:
//   4       8     blob size in bytes
//   12      8     Checksum64 (util/binary_io) of the blob
//   then payload bytes fill the rest of each page.
//
// A key may instead hold an ADOPTED RANGE: bytes [offset, offset + size) of
// a read-only file the store never copies (a cold engine restart adopts
// each tenant's blob inside the snapshot file it just verified). The range
// carries its own trailing Checksum64, which Get verifies.
//
// The key -> (head page or range, size) catalog lives in memory only: the
// store is a RAM-extension spill target, and after a crash tenant state is
// rebuilt from snapshot + WAL, repopulating the store organically as
// tenants go cold again.
//
// Thread safety: all operations are serialized on one internal mutex (an
// adopted range is read after its entry is copied out and the mutex
// released), so the store is safe for concurrent use from any thread.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "storage/buffer_pool.h"
#include "util/status.h"

namespace cerl {
namespace storage {

/// A file opened read-only, shared by every range a TenantStore adopts from
/// it; the descriptor closes when the last owner lets go. Only a writer
/// that renames a complete new file over the path (WriteFileAtomic) may
/// replace it: the open descriptor keeps reading the old inode, whose disk
/// space therefore stays allocated until the descriptor closes.
class ReadOnlyFile {
 public:
  static Result<std::shared_ptr<const ReadOnlyFile>> Open(
      const std::string& path);
  ~ReadOnlyFile();
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;

  /// File size when opened.
  uint64_t size() const { return size_; }
  /// The `n` bytes at `offset`; a short read is an IoError.
  Result<std::string> ReadAt(uint64_t offset, uint64_t n) const;

 private:
  ReadOnlyFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  const std::string path_;
  const int fd_;
  const uint64_t size_;
};

class TenantStore {
 public:
  /// `pool` must outlive the store.
  explicit TenantStore(BufferPool* pool) : pool_(pool) {}

  /// Stores `blob` under `key`, replacing any previous blob (whose pages
  /// are freed). On failure the old blob is gone and `key` is absent.
  Status Put(int64_t key, std::string_view blob);

  /// Makes bytes [offset, offset + size) of `file` the blob under `key`
  /// without copying them, replacing any previous blob like Put. The range
  /// must end with the Checksum64 of the bytes before it (AppendChecksum),
  /// as every CERLCKP2 blob does.
  Status Adopt(int64_t key, std::shared_ptr<const ReadOnlyFile> file,
               uint64_t offset, uint64_t size);

  /// Reads back the blob stored under `key`. Verifies the stored checksum
  /// (an adopted range: its own trailer): a corrupted chain or range, or a
  /// short read, is a clean IoError, never garbage bytes.
  Result<std::string> Get(int64_t key) const;

  /// Frees the chain (or lets go of the range) under `key`. Missing keys
  /// are NotFound.
  Status Erase(int64_t key);

  bool Contains(int64_t key) const;
  size_t num_blobs() const;
  /// Sum of stored blob sizes (payload bytes, not page overhead).
  uint64_t stored_bytes() const;

 private:
  struct Entry {
    PageId head = kInvalidPageId;  ///< first page of a chain
    uint64_t size = 0;
    /// Set for an adopted range, which has no pages.
    std::shared_ptr<const ReadOnlyFile> file;
    uint64_t offset = 0;  ///< of the adopted range in `file`
  };
  using Catalog = std::unordered_map<int64_t, Entry>;

  Status FreeChainLocked(PageId head);
  /// Removes the entry; a chain's pages are freed.
  Status DropLocked(Catalog::iterator it);

  BufferPool* const pool_;
  mutable std::mutex mutex_;
  Catalog catalog_;
  uint64_t stored_bytes_ = 0;
};

}  // namespace storage
}  // namespace cerl
