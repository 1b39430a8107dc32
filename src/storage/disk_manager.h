// Single-file page store: a flat file of kPageSize pages with a superblock
// at page 0 and a free list threaded through freed pages.
//
// File layout:
//
//   page 0 (superblock):
//     offset  size  field
//     0       8     magic "CERLSTO1"
//     8       4     page_count   (total pages in the file, incl. superblock)
//     12      4     free_head    (PageId of first free page; 0 = none)
//     16      4     free_count   (number of pages on the free list)
//   page i >= 1: raw page bytes (DiskManager does not interpret them,
//     except that a page on the free list stores the next free PageId in
//     its first 4 bytes).
//
// The store is a spill target, not a durability source: engine durability
// is snapshot + WAL, and spilled tenant state is reconstructed from those
// after a crash. The superblock is therefore rewritten on Flush()/close
// rather than on every allocation.
//
// Thread safety: all methods are safe to call concurrently (one internal
// mutex; page reads/writes use positional pread/pwrite on a shared fd).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "storage/page.h"
#include "util/status.h"

namespace cerl {
namespace storage {

/// Reads exactly `n` bytes at `offset` of `fd`; a short read (a truncated
/// file) is an IoError naming `path`.
Status PreadFull(int fd, char* buf, size_t n, uint64_t offset,
                 const std::string& path);

class DiskManager {
 public:
  /// Opens (or creates) the store file at `path`. An existing file must
  /// carry a valid superblock; a malformed one is a clean IoError.
  static Result<std::unique_ptr<DiskManager>> Open(const std::string& path);

  ~DiskManager();
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a page: pops the free list if non-empty, otherwise grows the
  /// file by one page. The page's on-disk contents are unspecified until
  /// the first WritePage.
  Result<PageId> AllocatePage();

  /// Returns a page to the free list. Freeing the superblock, an
  /// out-of-range page, or kInvalidPageId is an InvalidArgument error.
  Status FreePage(PageId id);

  /// Reads/writes one full page. `buf` must hold kPageSize bytes.
  Status ReadPage(PageId id, char* buf);
  Status WritePage(PageId id, const char* buf);

  /// Rewrites the superblock so page_count/free_head survive reopen.
  Status Flush();

  /// Total pages in the file, including the superblock.
  uint32_t page_count() const;
  /// Pages currently on the free list.
  uint32_t free_pages() const;
  const std::string& path() const { return path_; }

 private:
  DiskManager(std::string path, int fd);

  Status CheckDataPageLocked(PageId id, const char* op) const;
  Status WriteSuperblockLocked();
  Status ReadPageLocked(PageId id, char* buf);
  Status WritePageLocked(PageId id, const char* buf);

  const std::string path_;
  int fd_;

  mutable std::mutex mutex_;
  uint32_t page_count_ = 1;           // superblock
  PageId free_head_ = kInvalidPageId;
  uint32_t free_count_ = 0;
};

}  // namespace storage
}  // namespace cerl
