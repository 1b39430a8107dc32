#include "storage/disk_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "util/fault_injection.h"

namespace cerl {
namespace storage {
namespace {

constexpr char kMagic[8] = {'C', 'E', 'R', 'L', 'S', 'T', 'O', '1'};

// Guard against a corrupt superblock driving page_count to something that
// implies a multi-terabyte file: 2^22 pages * 4 KiB = 16 GiB.
constexpr uint32_t kMaxPages = 1u << 22;

Status PwriteFull(int fd, const char* buf, size_t n, off_t offset,
                  const std::string& path) {
  size_t done = 0;
  while (done < n) {
    const ssize_t rc = ::pwrite(fd, buf + done, n - done,
                                offset + static_cast<off_t>(done));
    if (rc < 0) return Status::IoError("pwrite failed: " + path);
    done += static_cast<size_t>(rc);
  }
  return Status::Ok();
}

}  // namespace

Status PreadFull(int fd, char* buf, size_t n, uint64_t offset,
                 const std::string& path) {
  size_t done = 0;
  while (done < n) {
    const ssize_t rc = ::pread(fd, buf + done, n - done,
                               static_cast<off_t>(offset + done));
    if (rc < 0) return Status::IoError("pread failed: " + path);
    if (rc == 0) return Status::IoError("short pread (truncated): " + path);
    done += static_cast<size_t>(rc);
  }
  return Status::Ok();
}

DiskManager::DiskManager(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

DiskManager::~DiskManager() {
  if (fd_ >= 0) {
    // Best effort: a spill store that loses its superblock on close is
    // rebuilt from snapshot + WAL, not a durability hole.
    (void)WriteSuperblockLocked();
    ::close(fd_);
  }
}

Result<std::unique_ptr<DiskManager>> DiskManager::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError("cannot open page store: " + path);
  std::unique_ptr<DiskManager> dm(new DiskManager(path, fd));

  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    return Status::IoError("cannot size page store: " + path);
  }
  if (size == 0) {
    // Fresh store: write the initial superblock.
    CERL_RETURN_IF_ERROR(dm->WriteSuperblockLocked());
    return dm;
  }
  if (size < static_cast<off_t>(kPageSize) || size % kPageSize != 0) {
    return Status::IoError("page store is not page-aligned: " + path);
  }
  char super[kPageSize];
  CERL_RETURN_IF_ERROR(PreadFull(fd, super, kPageSize, 0, path));
  if (std::memcmp(super, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("page store has bad magic: " + path);
  }
  uint32_t page_count = 0, free_head = 0, free_count = 0;
  std::memcpy(&page_count, super + 8, sizeof(page_count));
  std::memcpy(&free_head, super + 12, sizeof(free_head));
  std::memcpy(&free_count, super + 16, sizeof(free_count));
  const auto file_pages = static_cast<uint64_t>(size) / kPageSize;
  if (page_count == 0 || page_count > kMaxPages ||
      page_count > file_pages || free_head >= page_count ||
      free_count >= page_count) {
    return Status::IoError("page store superblock is corrupt: " + path);
  }
  dm->page_count_ = page_count;
  dm->free_head_ = free_head;
  dm->free_count_ = free_count;
  return dm;
}

Status DiskManager::CheckDataPageLocked(PageId id, const char* op) const {
  if (id == kInvalidPageId || id >= page_count_) {
    return Status::InvalidArgument(std::string(op) + " of page " +
                                   std::to_string(id) +
                                   " outside store of " +
                                   std::to_string(page_count_) + " pages");
  }
  return Status::Ok();
}

Status DiskManager::WriteSuperblockLocked() {
  char super[kPageSize];
  std::memset(super, 0, sizeof(super));
  std::memcpy(super, kMagic, sizeof(kMagic));
  std::memcpy(super + 8, &page_count_, sizeof(page_count_));
  std::memcpy(super + 12, &free_head_, sizeof(free_head_));
  std::memcpy(super + 16, &free_count_, sizeof(free_count_));
  return PwriteFull(fd_, super, kPageSize, 0, path_);
}

Status DiskManager::ReadPageLocked(PageId id, char* buf) {
  CERL_RETURN_IF_ERROR(CheckDataPageLocked(id, "read"));
  return PreadFull(fd_, buf, kPageSize,
                   static_cast<off_t>(id) * kPageSize, path_);
}

Status DiskManager::WritePageLocked(PageId id, const char* buf) {
  if (CERL_FAULT_POINT(FaultPoint::kIoWrite)) {
    return Status::IoError("injected page write failure: " + path_);
  }
  CERL_RETURN_IF_ERROR(CheckDataPageLocked(id, "write"));
  return PwriteFull(fd_, buf, kPageSize,
                    static_cast<off_t>(id) * kPageSize, path_);
}

Result<PageId> DiskManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_head_ != kInvalidPageId) {
    const PageId id = free_head_;
    char page[kPageSize];
    CERL_RETURN_IF_ERROR(ReadPageLocked(id, page));
    PageId next = kInvalidPageId;
    std::memcpy(&next, page, sizeof(next));
    if (next != kInvalidPageId && next >= page_count_) {
      return Status::IoError("page store free list is corrupt: " + path_);
    }
    free_head_ = next;
    --free_count_;
    return id;
  }
  if (page_count_ >= kMaxPages) {
    return Status::ResourceExhausted("page store is full: " + path_);
  }
  const PageId id = page_count_;
  // Extend the file so the new page is addressable by pread before its
  // first write-back.
  char zero[kPageSize];
  std::memset(zero, 0, sizeof(zero));
  CERL_RETURN_IF_ERROR(PwriteFull(fd_, zero, kPageSize,
                                  static_cast<off_t>(id) * kPageSize, path_));
  ++page_count_;
  return id;
}

Status DiskManager::FreePage(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  CERL_RETURN_IF_ERROR(CheckDataPageLocked(id, "free"));
  char page[kPageSize];
  std::memset(page, 0, sizeof(page));
  std::memcpy(page, &free_head_, sizeof(free_head_));
  CERL_RETURN_IF_ERROR(WritePageLocked(id, page));
  free_head_ = id;
  ++free_count_;
  return Status::Ok();
}

Status DiskManager::ReadPage(PageId id, char* buf) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ReadPageLocked(id, buf);
}

Status DiskManager::WritePage(PageId id, const char* buf) {
  std::lock_guard<std::mutex> lock(mutex_);
  return WritePageLocked(id, buf);
}

Status DiskManager::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  return WriteSuperblockLocked();
}

uint32_t DiskManager::page_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return page_count_;
}

uint32_t DiskManager::free_pages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_count_;
}

}  // namespace storage
}  // namespace cerl
